#pragma once
// Deterministic random number streams.
//
// Every stochastic component in the library draws from its own named stream
// derived from a single master seed, so that simulations are reproducible
// bit-for-bit regardless of the order in which components are constructed
// or how many draws other components make.

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>

namespace meshopt {

/// A self-contained pseudo-random stream (mt19937_64 based).
///
/// Streams are cheap to construct; derive one per component via
/// RngStream(masterSeed, "component-name").
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_(seed) {}

  /// Derive a substream deterministically from a master seed and a label.
  RngStream(std::uint64_t master_seed, std::string_view label)
      : engine_(mix(master_seed, hash(label))) {}

  /// Uniform double in [0, 1).
  ///
  /// The value libstdc++'s std::uniform_real_distribution<double>{0, 1}
  /// (std::generate_canonical<double, 53>) draws from the same engine,
  /// bit for bit: one draw scaled by 2^-64 and kept below 1. The draw is
  /// converted as two 32-bit halves, each exact as a double, so the one
  /// rounding of their sum equals a direct uint64 -> double conversion.
  /// That direct conversion compiles, for the default x86-64 target, to a
  /// branch on the draw's top bit, which a random draw mispredicts half
  /// the time; the simulator's channel draws several per frame.
  [[nodiscard]] double uniform() {
    const std::uint64_t x = engine_();
    const double v =
        static_cast<double>(static_cast<std::uint32_t>(x >> 32)) * 0x1p32 +
        static_cast<double>(static_cast<std::uint32_t>(x));
    const double r = v * 0x1p-64;
    return r < 1.0 ? r : std::nextafter(1.0, 0.0);
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponential variate with the given mean (libstdc++'s
  /// std::exponential_distribution<double>(1 / mean), bit for bit).
  [[nodiscard]] double exponential(double mean) {
    return -std::log(1.0 - uniform()) / (1.0 / mean);
  }

  /// Normal variate: Marsaglia's polar method, as libstdc++'s
  /// std::normal_distribution<double>(mean, stddev) draws it from a fresh
  /// distribution object (the pair's second variate is dropped), bit for
  /// bit.
  [[nodiscard]] double normal(double mean, double stddev) {
    double x, y, r2;
    do {
      x = 2.0 * uniform() - 1.0;
      y = 2.0 * uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2 * std::log(r2) / r2);
    return y * mult * stddev + mean;
  }

  /// Raw 64-bit draw (for deriving further seeds).
  [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

  /// FNV-1a hash of a label, used to derive substream seeds.
  [[nodiscard]] static std::uint64_t hash(std::string_view s) {
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    return h;
  }

  /// splitmix64-style mixing of two seeds.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a + 0x9e3779b97f4a7c15ULL + b;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace meshopt
