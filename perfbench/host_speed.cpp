// The host speed probe: a fixed piece of work whose wall time tracks how
// fast this host runs the control plane's kind of code right now.
//
// On a shared virtual machine the same binary and seed run up to 50%
// slower for stretches of seconds to minutes while a neighbour loads the
// physical core. A tight arithmetic loop does not see it; code that, like
// the planners and the simulator, branches on data, allocates, chases
// pointers and streams doubles through L1/L2 does. The probe does all of
// that (sort, ordered map, simplex-style row updates, a pointer chase beyond
// L2, a heap-ordered event loop of type-erased callbacks) and is compiled
// from this directory only, so a change to the library never changes it.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "bench.h"

namespace meshbench {
namespace {

std::uint64_t lcg(std::uint64_t& r) {
  r = r * 6364136223846793005ull + 1442695040888963407ull;
  return r >> 33;
}

struct ProbeInputs {
  static constexpr int kRows = 64;
  static constexpr int kCols = 256;
  static constexpr std::uint32_t kChase = 1u << 20;  // 4 MiB of indices

  std::vector<std::uint32_t> keys;
  std::vector<double> tableau;
  std::vector<std::uint32_t> next;

  ProbeInputs() {
    std::uint64_t r = 7;
    for (int i = 0; i < 4096; ++i)
      keys.push_back(static_cast<std::uint32_t>(lcg(r)));
    for (int i = 0; i < kRows * kCols; ++i)
      tableau.push_back(1.0 + static_cast<double>(lcg(r) % 4096) / 4096.0);
    // One cycle through every slot in a random order.
    std::vector<std::uint32_t> order(kChase);
    for (std::uint32_t i = 0; i < kChase; ++i) order[i] = i;
    for (std::uint32_t i = kChase - 1; i > 0; --i)
      std::swap(order[i], order[lcg(r) % (i + 1)]);
    next.resize(kChase);
    for (std::uint32_t i = 0; i < kChase; ++i)
      next[order[i]] = order[(i + 1) % kChase];
  }
};

volatile std::uint64_t g_sink = 0;  // keeps the probe's results live

/// One pass of the probe's work, timed.
double probe_pass(const ProbeInputs& in) {
  const auto t0 = Clock::now();
  std::uint64_t acc = 0;

  std::vector<std::uint32_t> keys = in.keys;
  std::sort(keys.begin(), keys.end());
  acc += keys[keys.size() / 2];

  std::map<std::uint32_t, std::uint32_t> m;
  std::uint64_t r = 11;
  for (std::uint32_t i = 0; i < 2000; ++i)
    m[static_cast<std::uint32_t>(lcg(r) >> 8)] += i;
  for (int i = 0; i < 2000; ++i) {
    const auto it = m.lower_bound(static_cast<std::uint32_t>(lcg(r) >> 8));
    if (it != m.end()) acc += it->second;
  }

  constexpr int C = ProbeInputs::kCols;
  std::vector<double> t = in.tableau;
  for (int p = 0; p < 16; ++p) {
    const int pc = 3 * p;
    const double inv = 1.0 / t[p * C + pc];
    for (int i = 0; i < ProbeInputs::kRows; ++i) {
      if (i == p) continue;
      const double f = t[i * C + pc] * inv;
      for (int j = 0; j < C; ++j) t[i * C + j] -= f * t[p * C + j];
    }
  }
  acc += static_cast<std::uint64_t>(t[5] > 0);

  std::uint32_t j = static_cast<std::uint32_t>(acc) % ProbeInputs::kChase;
  for (int k = 0; k < 2000; ++k) j = in.next[j];
  acc += j;

  // Event loop: pop the earliest event, run its callback, which schedules
  // a successor carrying a freshly allocated payload.
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::vector<std::function<std::uint64_t(std::uint64_t)>> handlers;
  for (std::uint32_t h = 0; h < 16; ++h)
    handlers.emplace_back([h, payload = std::vector<std::uint32_t>(h + 4, h)](
                              std::uint64_t x) {
      return x + payload[x % payload.size()] + h;
    });
  for (std::uint32_t e = 0; e < 256; ++e) queue.push({lcg(r) % 4096, e});
  for (int k = 0; k < 3000; ++k) {
    const Event ev = queue.top();
    queue.pop();
    auto payload = std::make_unique<std::uint64_t[]>(1 + ev.second % 8);
    payload[0] = handlers[ev.second % handlers.size()](ev.first);
    acc += payload[0];
    queue.push({ev.first + 1 + lcg(r) % 512, ev.second});
  }

  g_sink = g_sink + acc;
  return 1e3 * seconds_since(t0);
}

}  // namespace

// Two passes: the first also measures how long the probe's data takes to
// come back into cache after the unit that ran before it.
double probe_ms() {
  static const ProbeInputs in;
  return probe_pass(in) + probe_pass(in);
}

}  // namespace meshbench
