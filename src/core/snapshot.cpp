#include "core/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "util/json.h"
#include "util/rng.h"

namespace meshopt {

namespace {

// splitmix64 chaining over whole 64-bit values (endian-independent:
// values, not memory, feed the mix) via the library's shared
// RngStream::mix. One multiply-xor round per value keeps fingerprinting
// an 80x80 LIR table in the tens of microseconds — it runs on every
// planner lookup, i.e. every round.
constexpr std::uint64_t kFpSeed = 1469598103934665603ULL;

void fp_mix(std::uint64_t& h, std::uint64_t v) { h = RngStream::mix(h, v); }

}  // namespace

int MeasurementSnapshot::link_index(NodeId src, NodeId dst) const {
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (links[i].src == src && links[i].dst == dst)
      return static_cast<int>(i);
  }
  return -1;
}

bool MeasurementSnapshot::is_neighbor(NodeId a, NodeId b) const {
  if (a == b) return false;
  const std::pair<NodeId, NodeId> key =
      a < b ? std::pair{a, b} : std::pair{b, a};
  return std::binary_search(neighbors.begin(), neighbors.end(), key);
}

std::uint64_t MeasurementSnapshot::topology_fingerprint() const {
  std::uint64_t h = kFpSeed;
  fp_mix(h, links.size());
  for (const SnapshotLink& l : links) {
    fp_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(l.src)));
    fp_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(l.dst)));
    fp_mix(h, static_cast<std::uint64_t>(l.rate));
  }
  fp_mix(h, neighbors.size());
  for (const auto& [a, b] : neighbors) {
    fp_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)));
    fp_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(b)));
  }
  fp_mix(h, static_cast<std::uint64_t>(lir.rows()));
  fp_mix(h, static_cast<std::uint64_t>(lir.cols()));
  const double* lir_data = lir.data();
  const std::size_t lir_cells =
      static_cast<std::size_t>(lir.rows()) * static_cast<std::size_t>(lir.cols());
  for (std::size_t i = 0; i < lir_cells; ++i)
    fp_mix(h, std::bit_cast<std::uint64_t>(lir_data[i]));
  fp_mix(h, std::bit_cast<std::uint64_t>(lir_threshold));
  return h;
}

MeasurementSnapshot MeasurementSnapshot::restrict_to(
    const std::vector<int>& link_ids) const {
  MeasurementSnapshot sub;
  sub.links.reserve(link_ids.size());
  std::vector<NodeId> nodes;
  for (const int id : link_ids) {
    if (id < 0 || id >= static_cast<int>(links.size()))
      throw std::out_of_range("MeasurementSnapshot::restrict_to");
    const SnapshotLink& l = links[static_cast<std::size_t>(id)];
    sub.links.push_back(l);
    nodes.push_back(l.src);
    nodes.push_back(l.dst);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  const auto has_node = [&nodes](NodeId n) {
    return std::binary_search(nodes.begin(), nodes.end(), n);
  };
  for (const auto& [a, b] : neighbors)
    if (has_node(a) && has_node(b)) sub.neighbors.emplace_back(a, b);
  sub.lir_threshold = lir_threshold;
  if (!lir.empty()) {
    const int n = static_cast<int>(link_ids.size());
    sub.lir.resize(n, n, 1.0);
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c)
        sub.lir(r, c) = lir(link_ids[static_cast<std::size_t>(r)],
                            link_ids[static_cast<std::size_t>(c)]);
  }
  return sub;
}

std::uint64_t MeasurementSnapshot::component_fingerprint(
    const std::vector<int>& link_ids) const {
  return restrict_to(link_ids).topology_fingerprint();
}

std::vector<double> MeasurementSnapshot::capacities() const {
  std::vector<double> caps;
  caps.reserve(links.size());
  for (const SnapshotLink& l : links) caps.push_back(l.estimate.capacity_bps);
  return caps;
}

std::vector<LinkRef> MeasurementSnapshot::link_refs() const {
  std::vector<LinkRef> refs;
  refs.reserve(links.size());
  for (const SnapshotLink& l : links)
    refs.push_back(LinkRef{l.src, l.dst, l.rate});
  return refs;
}

std::string MeasurementSnapshot::to_json() const {
  std::string out;
  out.reserve(256 + links.size() * 160);
  out += "{\"version\":1,\"links\":[";
  for (std::size_t i = 0; i < links.size(); ++i) {
    const SnapshotLink& l = links[i];
    if (i > 0) out.push_back(',');
    out += "{\"src\":";
    json_append_int(out, l.src);
    out += ",\"dst\":";
    json_append_int(out, l.dst);
    out += ",\"rate\":";
    json_append_int(out, static_cast<int>(l.rate));
    out += ",\"retry_limit\":";
    json_append_int(out, l.retry_limit);
    out += ",\"p_data\":";
    json_append_double(out, l.estimate.p_data);
    out += ",\"p_ack\":";
    json_append_double(out, l.estimate.p_ack);
    out += ",\"p_link\":";
    json_append_double(out, l.estimate.p_link);
    out += ",\"capacity_bps\":";
    json_append_double(out, l.estimate.capacity_bps);
    out.push_back('}');
  }
  out += "],\"neighbors\":[";
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('[');
    json_append_int(out, neighbors[i].first);
    out.push_back(',');
    json_append_int(out, neighbors[i].second);
    out.push_back(']');
  }
  out.push_back(']');
  // Always emitted (not only alongside a table) so the exact-round-trip
  // guarantee covers snapshots with a non-default threshold and no LIR.
  out += ",\"lir_threshold\":";
  json_append_double(out, lir_threshold);
  if (!lir.empty()) {
    out += ",\"lir\":[";
    for (int r = 0; r < lir.rows(); ++r) {
      if (r > 0) out.push_back(',');
      out.push_back('[');
      for (int c = 0; c < lir.cols(); ++c) {
        if (c > 0) out.push_back(',');
        json_append_double(out, lir(r, c));
      }
      out.push_back(']');
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

MeasurementSnapshot MeasurementSnapshot::from_json(std::string_view text) {
  return from_value(JsonValue::parse(text));
}

MeasurementSnapshot MeasurementSnapshot::from_value(const JsonValue& doc) {
  if (doc.at("version").as_int() != 1)
    throw std::invalid_argument("snapshot: unsupported schema version");

  MeasurementSnapshot snap;
  const std::vector<JsonValue>& jlinks = doc.at("links").items();
  snap.links.reserve(jlinks.size());
  for (const JsonValue& jl : jlinks) {
    SnapshotLink l;
    l.src = jl.at("src").as_int();
    l.dst = jl.at("dst").as_int();
    l.rate = static_cast<Rate>(jl.at("rate").as_int());
    l.retry_limit = jl.at("retry_limit").as_int();
    l.estimate.p_data = jl.at("p_data").as_number();
    l.estimate.p_ack = jl.at("p_ack").as_number();
    l.estimate.p_link = jl.at("p_link").as_number();
    l.estimate.capacity_bps = jl.at("capacity_bps").as_number();
    snap.links.push_back(l);
  }
  const std::vector<JsonValue>& jneighbors = doc.at("neighbors").items();
  snap.neighbors.reserve(jneighbors.size());
  for (const JsonValue& jp : jneighbors) {
    const auto& pair = jp.items();
    if (pair.size() != 2)
      throw std::invalid_argument("snapshot: neighbor pair arity");
    // Normalize hand-written documents to the first < second invariant
    // is_neighbor's binary search relies on.
    const NodeId a = pair[0].as_int();
    const NodeId b = pair[1].as_int();
    snap.neighbors.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(snap.neighbors.begin(), snap.neighbors.end());
  snap.neighbors.erase(
      std::unique(snap.neighbors.begin(), snap.neighbors.end()),
      snap.neighbors.end());
  snap.lir_threshold = doc.at("lir_threshold").as_number();
  if (const JsonValue* jlir = doc.find("lir")) {
    const auto& rows = jlir->items();
    const int n = static_cast<int>(rows.size());
    snap.lir.resize(n, n);
    for (int r = 0; r < n; ++r) {
      const auto& cols = rows[static_cast<std::size_t>(r)].items();
      if (static_cast<int>(cols.size()) != n)
        throw std::invalid_argument("snapshot: LIR table must be square");
      for (int c = 0; c < n; ++c)
        snap.lir(r, c) = cols[static_cast<std::size_t>(c)].as_number();
    }
  }
  return snap;
}

}  // namespace meshopt
