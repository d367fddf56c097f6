// Trace & replay subsystem tests: binary/JSON/in-memory codec exactness,
// record-then-replay plan bit-identity against the live controller, fleet
// replay determinism across thread counts (with zero Simulator
// construction), probe-window batch-scheduling timing identity, and the
// codec's truncation/corruption error paths and out-of-range link fields.

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/snapshot_source.h"
#include "probe/live_source.h"
#include "probe/probe_system.h"
#include "scenario/topologies.h"
#include "scenario/workbench.h"
#include "serve/wire.h"
#include "sim/simulator.h"
#include "sweep/controller_fleet.h"
#include "util/trace_codec.h"

namespace meshopt {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Chain topology 0-1-2 plus a 1-hop cross flow 3->2 — the canonical
/// gateway scenario, shared via scenario/topologies.h.
void build_gateway(Workbench& wb) { build_gateway_chain(wb); }

ControllerConfig quick_config() {
  ControllerConfig cfg;
  cfg.probe_period_s = 0.25;
  cfg.probe_window = 40;
  cfg.optimizer.objective = Objective::kProportionalFair;
  return cfg;
}

void add_gateway_flows(Workbench& wb, MeshController& ctl) {
  ManagedFlow two_hop;
  two_hop.flow_id = wb.net().open_flow(0, 2, Protocol::kUdp, 1470);
  two_hop.path = {0, 1, 2};
  ctl.manage_flow(two_hop);
  ManagedFlow one_hop;
  one_hop.flow_id = wb.net().open_flow(3, 2, Protocol::kUdp, 1470);
  one_hop.path = {3, 2};
  ctl.manage_flow(one_hop);
}

/// A synthetic trace with doubles chosen to catch any non-exact path:
/// non-terminating binaries, extreme magnitudes, and a subnormal.
std::vector<MeasurementSnapshot> synthetic_trace() {
  std::vector<MeasurementSnapshot> rounds;
  for (int r = 0; r < 3; ++r) {
    MeasurementSnapshot snap;
    for (int l = 0; l < 2 + r; ++l) {
      SnapshotLink link;
      link.src = l;
      link.dst = l + 1;
      link.rate = l % 2 == 0 ? Rate::kR11Mbps : Rate::kR1Mbps;
      link.retry_limit = 7 - r;
      link.estimate.p_data = 0.1 + r;
      link.estimate.p_ack = 1.0 / 3.0;
      link.estimate.p_link = 6.626070150e-34;
      link.estimate.capacity_bps = 5.5e6 + 0.123456789012345 * l;
      snap.links.push_back(link);
    }
    snap.neighbors = {{0, 1}, {1, 2}};
    snap.lir_threshold = 0.95 - 1e-17 * r;
    if (r == 2) {
      snap.lir.resize(4, 4, 1.0);
      snap.lir(0, 1) = 5e-324;  // smallest subnormal double
      snap.lir(1, 0) = 0.30000000000000004;
    }
    rounds.push_back(std::move(snap));
  }
  return rounds;
}

TEST(TraceCodec, BinaryJsonAndFileRoundTripsAreExact) {
  const std::vector<MeasurementSnapshot> rounds = synthetic_trace();

  // In-memory binary round trip: every field, every double bit.
  const std::string bytes = encode_trace(rounds);
  const std::vector<MeasurementSnapshot> decoded = decode_trace(bytes);
  ASSERT_EQ(decoded.size(), rounds.size());
  for (std::size_t i = 0; i < rounds.size(); ++i)
    EXPECT_EQ(decoded[i], rounds[i]) << "round " << i;
  // Re-encoding is byte-stable.
  EXPECT_EQ(encode_trace(decoded), bytes);

  // File round trip through TraceWriter/TraceReader.
  const std::string path = temp_path("roundtrip.trace");
  write_trace(path, rounds);
  EXPECT_EQ(read_trace(path), rounds);

  // Streaming reader sees the same records one by one.
  TraceReader reader(path);
  MeasurementSnapshot snap;
  std::size_t n = 0;
  while (reader.next(snap)) EXPECT_EQ(snap, rounds[n++]);
  EXPECT_EQ(n, rounds.size());
  EXPECT_EQ(reader.rounds_read(), static_cast<int>(rounds.size()));

  // JSON interop: binary -> JSON -> in-memory -> binary, still exact.
  const std::string json = trace_to_json(decoded);
  const std::vector<MeasurementSnapshot> via_json = trace_from_json(json);
  EXPECT_EQ(via_json, rounds);
  EXPECT_EQ(encode_trace(via_json), bytes);

  // TraceSource streams the rounds in order and reports remaining().
  TraceSource source(rounds);
  EXPECT_EQ(source.remaining(), static_cast<int>(rounds.size()));
  n = 0;
  while (source.next(snap)) EXPECT_EQ(snap, rounds[n++]);
  EXPECT_EQ(source.remaining(), 0);
  source.rewind();
  ASSERT_TRUE(source.next(snap));
  EXPECT_EQ(snap, rounds[0]);
}

TEST(TraceCodec, BinaryDecoderNormalizesNeighborPairs) {
  // External tooling may write neighbor pairs in any order; the binary
  // decoder normalizes to the sorted first<second invariant is_neighbor's
  // binary search relies on, exactly like the JSON decoder.
  MeasurementSnapshot snap;
  snap.neighbors = {{2, 1}, {1, 2}, {3, 0}};  // reversed + duplicate
  const std::vector<MeasurementSnapshot> decoded =
      decode_trace(encode_trace({snap}));
  ASSERT_EQ(decoded.size(), 1u);
  ASSERT_EQ(decoded[0].neighbors.size(), 2u);
  EXPECT_TRUE(decoded[0].is_neighbor(1, 2));
  EXPECT_TRUE(decoded[0].is_neighbor(2, 1));
  EXPECT_TRUE(decoded[0].is_neighbor(0, 3));
  EXPECT_FALSE(decoded[0].is_neighbor(0, 1));
}

/// Overwrite the little-endian 32-bit word at `at`.
void patch_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[at + std::size_t(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
}

TEST(TraceCodec, BinaryDecoderRejectsOutOfRangeLinkFields) {
  // A MOTRACE1 payload opens with the link count, then each link's src,
  // dst, rate and retry limit as 32-bit words: the first link's rate sits
  // at payload offset 12 and its retry limit at 16. The binary decoder
  // backs both trace files and binary submit frames.
  const MeasurementSnapshot snap = synthetic_trace()[0];
  std::string payload;
  trace_append_snapshot_payload(payload, snap);
  const std::string trace = encode_trace({snap});
  SubmitRequest req;
  req.tenant = 5;
  req.round_seq = 1;
  req.format = WireFormat::kBinary;
  req.snapshot = snap;
  std::string frame;
  wire_append_submit(frame, req);
  WireFrame out;
  ASSERT_EQ(wire_decode_frame(frame, out), frame.size());
  ASSERT_EQ(decode_trace(trace).size(), 1u);

  const std::size_t trace_payload = trace.size() - payload.size();
  const std::size_t frame_payload = frame.size() - payload.size();
  for (const auto& [offset, value] :
       {std::pair<std::size_t, std::uint32_t>{12, 300},   // rate 300
        {12, 2},                                          // one past kR11Mbps
        {16, static_cast<std::uint32_t>(-5)}}) {          // retry limit -5
    std::string bad_trace = trace;
    patch_u32(bad_trace, trace_payload + offset, value);
    EXPECT_THROW((void)decode_trace(bad_trace), std::invalid_argument)
        << offset << " " << value;
    std::string bad_frame = frame;
    patch_u32(bad_frame, frame_payload + offset, value);
    EXPECT_THROW((void)wire_decode_frame(bad_frame, out),
                 std::invalid_argument)
        << offset << " " << value;
  }
}

TEST(TraceCodec, TruncatedAndCorruptTracesAreSchemaErrors) {
  const std::string bytes = encode_trace(synthetic_trace());

  // Bad magic / short header.
  EXPECT_THROW((void)decode_trace("not a trace"), std::invalid_argument);
  std::string corrupt = bytes;
  corrupt[0] = 'X';
  EXPECT_THROW((void)decode_trace(corrupt), std::invalid_argument);
  EXPECT_THROW((void)decode_trace(bytes.substr(0, 10)),
               std::invalid_argument);
  // Unsupported container version.
  corrupt = bytes;
  corrupt[8] = 99;
  EXPECT_THROW((void)decode_trace(corrupt), std::invalid_argument);
  // Unknown header flags (version 1 defines none).
  corrupt = bytes;
  corrupt[12] = 1;
  EXPECT_THROW((void)decode_trace(corrupt), std::invalid_argument);

  // Truncation anywhere in the record stream: mid length prefix and mid
  // payload both throw rather than returning partial data.
  EXPECT_THROW((void)decode_trace(std::string_view(bytes).substr(
                   0, 16 + 2)),
               std::invalid_argument);
  EXPECT_THROW(
      (void)decode_trace(std::string_view(bytes).substr(0, bytes.size() - 1)),
      std::invalid_argument);

  // A record whose link count promises more payload than exists must be
  // rejected before any allocation is attempted.
  std::string hostile = trace_header();
  std::string payload;
  payload.push_back('\xff');
  payload.push_back('\xff');
  payload.push_back('\xff');
  payload.push_back('\x7f');  // link_count = 0x7fffffff
  hostile.push_back(static_cast<char>(payload.size()));
  hostile.push_back(0);
  hostile.push_back(0);
  hostile.push_back(0);
  hostile += payload;
  EXPECT_THROW((void)decode_trace(hostile), std::invalid_argument);

  // A non-square LIR table is rejected at decode (as the JSON decoder
  // does), not deep inside a replay worker.
  std::string nonsquare = trace_header();
  std::string ns_payload;
  ns_payload.append(4, '\0');  // 0 links
  ns_payload.append(4, '\0');  // 0 neighbors
  ns_payload.append(8, '\0');  // lir_threshold
  ns_payload += std::string("\x01\x00\x00\x00", 4);  // rows = 1
  ns_payload += std::string("\x02\x00\x00\x00", 4);  // cols = 2
  ns_payload.append(16, '\0');                       // 2 doubles
  nonsquare.push_back(static_cast<char>(ns_payload.size()));
  nonsquare.append(3, '\0');
  nonsquare += ns_payload;
  EXPECT_THROW((void)decode_trace(nonsquare), std::invalid_argument);

  // A hostile LIR shape whose cell count wraps 64-bit byte math
  // (2^31 x 2^31) must fail the bounds check, not pass a wrapped one.
  std::string wrap = trace_header();
  std::string wrap_payload;
  wrap_payload.append(4, '\0');                    // 0 links
  wrap_payload.append(4, '\0');                    // 0 neighbors
  wrap_payload.append(8, '\0');                    // lir_threshold
  wrap_payload += std::string("\x00\x00\x00\x80", 4);  // rows = 2^31
  wrap_payload += std::string("\x00\x00\x00\x80", 4);  // cols = 2^31
  wrap.push_back(static_cast<char>(wrap_payload.size()));
  wrap.append(3, '\0');
  wrap += wrap_payload;
  EXPECT_THROW((void)decode_trace(wrap), std::invalid_argument);

  // Writing after close is an error, not silent data loss.
  const std::string path = temp_path("closed.trace");
  TraceWriter writer(path);
  writer.write(synthetic_trace()[0]);
  writer.close();
  EXPECT_THROW(writer.write(synthetic_trace()[0]), std::runtime_error);
}

TEST(TraceCodec, FileReaderDetectsTruncationAndWriterRejectsBadPath) {
  const std::vector<MeasurementSnapshot> rounds = synthetic_trace();
  const std::string path = temp_path("tail.trace");
  write_trace(path, rounds);

  // Chop the last byte off the file: the reader must throw on the final
  // record, after decoding the earlier ones cleanly.
  std::string bytes = encode_trace(rounds);
  bytes.pop_back();
  const std::string chopped = temp_path("chopped.trace");
  {
    std::FILE* f = std::fopen(chopped.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  TraceReader reader(chopped);
  MeasurementSnapshot snap;
  ASSERT_TRUE(reader.next(snap));
  ASSERT_TRUE(reader.next(snap));
  EXPECT_THROW((void)reader.next(snap), std::invalid_argument);

  // A corrupt record length prefix (0xffffffff) must be rejected against
  // the file size BEFORE any buffer is sized — an error, not a 4 GiB
  // allocation attempt.
  std::string hostile_len = encode_trace({rounds[0]});
  hostile_len[16] = hostile_len[17] = hostile_len[18] = hostile_len[19] =
      static_cast<char>(0xff);
  const std::string hostile_path = temp_path("hostile-len.trace");
  {
    std::FILE* f = std::fopen(hostile_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(hostile_len.data(), 1, hostile_len.size(), f),
              hostile_len.size());
    std::fclose(f);
  }
  TraceReader hostile_reader(hostile_path);
  EXPECT_THROW((void)hostile_reader.next(snap), std::invalid_argument);
  // The error poisoned the reader: retrying must not decode misaligned
  // bytes as records.
  EXPECT_THROW((void)hostile_reader.next(snap), std::runtime_error);

  // A non-trace file fails at construction; a missing path at open.
  const std::string garbage = temp_path("garbage.trace");
  {
    std::FILE* f = std::fopen(garbage.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a trace header", f);
    std::fclose(f);
  }
  EXPECT_THROW(TraceReader r(garbage), std::invalid_argument);
  EXPECT_THROW(TraceReader r(temp_path("does/not/exist.trace")),
               std::runtime_error);
  EXPECT_THROW(TraceWriter w(temp_path("no/such/dir/out.trace")),
               std::runtime_error);
}

TEST(TraceReplay, RecordedRoundsReplayBitIdenticalPlans) {
  // The acceptance criterion: record an 8-round live run to a binary
  // trace, replay it through ControllerFleet with the same flows and
  // objective, and every round's plan must be bit-identical — with zero
  // Simulator construction anywhere on the replay path.
  const std::string path = temp_path("gateway8.trace");
  std::vector<RatePlan> live_plans;
  std::vector<FlowSpec> flows;
  {
    Workbench wb(211);
    build_gateway(wb);
    MeshController ctl(wb.net(), quick_config(), 211);
    add_gateway_flows(wb, ctl);
    flows = ctl.flow_specs();

    TraceWriter writer(path);
    ctl.record_to(&writer);
    for (int r = 0; r < 8; ++r) {
      const RoundResult round = ctl.run_round(wb);
      ASSERT_TRUE(round.ok) << "round " << r;
      live_plans.push_back(ctl.last_plan());
    }
    ctl.record_to(nullptr);
    writer.close();
    EXPECT_EQ(writer.rounds(), 8);
  }

  const std::vector<MeasurementSnapshot> trace = read_trace(path);
  ASSERT_EQ(trace.size(), 8u);

  const std::uint64_t sims_before = Simulator::constructed();
  ControllerFleet fleet(2);
  ReplayCell cell;
  cell.flows = flows;
  cell.plan = quick_config().plan();
  const std::vector<ReplayResult> results = fleet.replay({cell}, trace);
  EXPECT_EQ(Simulator::constructed(), sims_before)
      << "replay must not construct a Simulator";

  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok);
  ASSERT_EQ(results[0].plans.size(), 8u);
  for (std::size_t r = 0; r < 8; ++r)
    EXPECT_EQ(results[0].plans[r], live_plans[r]) << "round " << r;
}

TEST(TraceReplay, LiveSourceMatchesRunRoundSensing) {
  // LiveSource::next is the same windowed sensing step run_round uses, so
  // driving the controller through the SnapshotSource interface must
  // yield the identical snapshot sequence as the classic loop.
  Workbench wb_a(223);
  build_gateway(wb_a);
  MeshController ctl_a(wb_a.net(), quick_config(), 223);
  add_gateway_flows(wb_a, ctl_a);

  Workbench wb_b(223);
  build_gateway(wb_b);
  MeshController ctl_b(wb_b.net(), quick_config(), 223);
  add_gateway_flows(wb_b, ctl_b);

  LiveSource source(wb_a, ctl_a, /*max_windows=*/3);
  EXPECT_EQ(source.remaining(), 3);
  MeasurementSnapshot from_source;
  int windows = 0;
  while (source.next(from_source)) {
    (void)ctl_b.run_round(wb_b);
    EXPECT_EQ(from_source, ctl_b.snapshot()) << "window " << windows;
    ++windows;
  }
  EXPECT_EQ(windows, 3);
  EXPECT_EQ(source.remaining(), 0);
}

TEST(TraceReplay, FleetReplayIsBitIdenticalAcrossThreadCounts) {
  // A replay grid (objective x interference kind) over one shared trace,
  // run on 1 thread and on 4: every plan must be bit-for-bit identical.
  const std::string path = temp_path("grid.trace");
  std::vector<FlowSpec> flows;
  {
    Workbench wb(227);
    build_gateway(wb);
    ControllerConfig cfg = quick_config();
    MeshController ctl(wb.net(), cfg, 227);
    add_gateway_flows(wb, ctl);
    flows = ctl.flow_specs();
    const int l = static_cast<int>(ctl.links().size());
    DenseMatrix lir(l, l, 1.0);
    lir(0, 1) = lir(1, 0) = 0.2;
    ctl.set_lir_table(lir, 0.9);

    TraceWriter writer(path);
    ctl.record_to(&writer);
    LiveSource source(wb, ctl, /*max_windows=*/4);
    MeasurementSnapshot snap;
    while (source.next(snap)) {
    }
    writer.close();
  }
  const std::vector<MeasurementSnapshot> trace = read_trace(path);
  ASSERT_EQ(trace.size(), 4u);
  ASSERT_FALSE(trace[0].lir.empty());  // grid can exercise the LIR model

  std::vector<ReplayCell> cells;
  const Objective objectives[] = {Objective::kProportionalFair,
                                  Objective::kMaxThroughput,
                                  Objective::kMaxMin};
  for (const Objective obj : objectives) {
    for (const InterferenceModelKind kind :
         {InterferenceModelKind::kTwoHop, InterferenceModelKind::kLirTable}) {
      ReplayCell cell;
      cell.flows = flows;
      cell.plan.optimizer.objective = obj;
      cell.interference = kind;
      cells.push_back(std::move(cell));
    }
  }

  ControllerFleet serial(1);
  ControllerFleet parallel(4);
  const auto a = serial.replay(cells, trace);
  const auto b = parallel.replay(cells, trace);
  ASSERT_EQ(a.size(), cells.size());
  ASSERT_EQ(b.size(), cells.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, static_cast<int>(i));
    EXPECT_TRUE(a[i].ok) << "cell " << i;
    EXPECT_EQ(a[i].plans, b[i].plans) << "cell " << i;
  }
  // Distinct objectives genuinely produce distinct plans.
  EXPECT_NE(a[0].plans[0].y, a[2].plans[0].y);
}

TEST(ProbeSystem, BatchedWindowTimingMatchesIncremental) {
  // The batch-scheduling contract: precomputing a window of tick times
  // (one RNG pass up front) must leave every probe's arrival time
  // bit-identical to per-tick scheduling, through the window's end and
  // past the handoff back to incremental draws.
  auto run_side = [](int window_ticks) {
    Workbench wb(233);
    wb.add_nodes(2);
    wb.channel().set_rss_symmetric_dbm(0, 1, -58.0);
    std::vector<std::pair<TimeNs, std::uint64_t>> arrivals;
    const std::uint64_t handler = wb.net().node(1).add_handler(
        Protocol::kProbe, [&arrivals, &wb](const Packet& p, NodeId) {
          arrivals.emplace_back(wb.sim().now(), p.seq);
        });
    ProbeAgent agent(wb.net(), 0, RngStream(233, "probe-0"));
    agent.configure(0.25, {Rate::kR11Mbps});
    // Back-to-back "rounds" as the controller drives it (re-starts top
    // the batch back up mid-run; no-ops on the incremental side), a full
    // stop/restart (pre-drawn values must carry over so the restart's
    // phase draw still observes the right stream position), and a final
    // stretch running past every batched value so the per-tick fallback
    // is exercised too.
    agent.start(window_ticks);
    wb.run_for(8.0);
    agent.start(window_ticks);
    wb.run_for(8.0);
    agent.stop();
    wb.run_for(1.0);
    agent.start(window_ticks);
    wb.run_for(15.0);
    agent.stop();
    wb.net().node(1).remove_handler(Protocol::kProbe, handler);
    return arrivals;
  };

  const auto incremental = run_side(0);
  const auto batched = run_side(24);
  ASSERT_GT(incremental.size(), 150u);  // data + ack streams, ~128 ticks
  EXPECT_EQ(batched, incremental);
}

TEST(TraceReplay, GoldenTraceFixtureReplays) {
  // Golden binary fixture: a gateway trace recorded by this pipeline and
  // committed to the repo (CI uploads it next to the JSON schema
  // fixture). If the container format or snapshot payload drifts
  // incompatibly, this is the tripwire.
  const std::vector<MeasurementSnapshot> trace =
      read_trace(std::string(MESHOPT_SOURCE_DIR) +
                 "/tests/data/trace_fixture.bin");
  ASSERT_EQ(trace.size(), 4u);
  for (const MeasurementSnapshot& snap : trace) {
    ASSERT_EQ(snap.links.size(), 3u);
    EXPECT_GT(snap.links[0].estimate.capacity_bps, 0.0);
  }

  ReplayCell cell;
  cell.flows.resize(2);
  cell.flows[0].flow_id = 0;
  cell.flows[0].path = {0, 1, 2};
  cell.flows[1].flow_id = 1;
  cell.flows[1].path = {3, 2};
  ControllerFleet fleet(1);
  const std::vector<ReplayResult> results = fleet.replay({cell}, trace);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok);
  ASSERT_EQ(results[0].plans.size(), trace.size());
  for (const RatePlan& plan : results[0].plans) {
    EXPECT_GT(plan.y[0], 0.0);
    EXPECT_GT(plan.y[1], 0.0);
  }
}

void write_bytes(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::uint32_t u32_at(const std::string& bytes, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 1]))
             << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 3]))
             << 24;
}

TEST(TraceCodec, SkipAndCountSkipsACorruptPayloadAndKeepsReading) {
  const std::vector<MeasurementSnapshot> rounds = synthetic_trace();
  std::string bytes = encode_trace(rounds);

  // Walk the framing to record 1 and poison its payload's link count
  // (0xffffffff can never fit the payload), leaving the length prefix —
  // the resync point — intact. The record is individually undecodable but
  // the stream position after it is still exact.
  constexpr std::size_t kHeader = 16;
  const std::size_t record1 = kHeader + 4 + u32_at(bytes, kHeader);
  for (std::size_t i = 0; i < 4; ++i) bytes[record1 + 4 + i] = '\xff';

  const std::string path = temp_path("corrupt-middle.trace");
  write_bytes(path, bytes);

  // The strict default refuses the whole trace.
  EXPECT_THROW((void)read_trace(path), std::invalid_argument);

  // Skip-and-count salvages both intact records, in order and bit-exact,
  // and reports exactly one casualty.
  int corrupt = -1;
  const std::vector<MeasurementSnapshot> salvaged =
      read_trace(path, OnCorruptRecord::kSkipAndCount, &corrupt);
  ASSERT_EQ(salvaged.size(), 2u);
  EXPECT_EQ(salvaged[0], rounds[0]);
  EXPECT_EQ(salvaged[1], rounds[2]);
  EXPECT_EQ(corrupt, 1);

  // Same through the streaming reader and the SnapshotSource facade.
  TraceReader reader(path, OnCorruptRecord::kSkipAndCount);
  MeasurementSnapshot snap;
  int read = 0;
  while (reader.next(snap)) ++read;
  EXPECT_EQ(read, 2);
  EXPECT_EQ(reader.corrupt_records(), 1);

  TraceSource source =
      TraceSource::from_file(path, OnCorruptRecord::kSkipAndCount);
  EXPECT_EQ(source.remaining(), 2);
  EXPECT_EQ(source.corrupt_records(), 1);

  // Fleet replay under the policy plans every salvaged round; the strict
  // default propagates the decode error instead.
  ReplayCell cell;
  cell.flows.resize(1);
  cell.flows[0].flow_id = 0;
  cell.flows[0].path = {0, 1, 2};
  ControllerFleet fleet(1);
  ReplayOptions opts;
  opts.on_corrupt_record = OnCorruptRecord::kSkipAndCount;
  const std::vector<ReplayResult> results =
      fleet.replay_file({cell}, path, opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok);
  ASSERT_EQ(results[0].plans.size(), 2u);
  EXPECT_THROW((void)fleet.replay_file({cell}, path, ReplayOptions{}),
               std::invalid_argument);
}

TEST(TraceCodec, SkipAndCountSalvagesThePrefixWhenFramingIsDamaged) {
  const std::vector<MeasurementSnapshot> rounds = synthetic_trace();

  // A record chopped mid-payload: past the damage there is no trustworthy
  // length prefix to resync on, so the salvage is the intact prefix plus
  // one counted corrupt tail.
  std::string chopped = encode_trace(rounds);
  chopped.pop_back();
  const std::string tail_path = temp_path("corrupt-tail.trace");
  write_bytes(tail_path, chopped);

  EXPECT_THROW((void)read_trace(tail_path), std::invalid_argument);
  int corrupt = -1;
  const std::vector<MeasurementSnapshot> salvaged =
      read_trace(tail_path, OnCorruptRecord::kSkipAndCount, &corrupt);
  ASSERT_EQ(salvaged.size(), 2u);
  EXPECT_EQ(salvaged[0], rounds[0]);
  EXPECT_EQ(salvaged[1], rounds[1]);
  EXPECT_EQ(corrupt, 1);

  // A length prefix pointing past end-of-file is the same framing damage.
  std::string hostile = encode_trace(rounds);
  for (std::size_t i = 16; i < 20; ++i) hostile[i] = '\xff';
  const std::string hostile_path = temp_path("corrupt-length.trace");
  write_bytes(hostile_path, hostile);
  corrupt = -1;
  EXPECT_TRUE(
      read_trace(hostile_path, OnCorruptRecord::kSkipAndCount, &corrupt)
          .empty());
  EXPECT_EQ(corrupt, 1);

  // A pristine trace reads identically under either policy, zero counted.
  const std::string clean_path = temp_path("corrupt-none.trace");
  write_trace(clean_path, rounds);
  corrupt = -1;
  EXPECT_EQ(read_trace(clean_path, OnCorruptRecord::kSkipAndCount, &corrupt),
            rounds);
  EXPECT_EQ(corrupt, 0);
}

}  // namespace
}  // namespace meshopt
