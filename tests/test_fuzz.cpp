// Deterministic mutation fuzz of the serve wire's submit frames, JSON and
// binary (MOTRACE1 record payloads), and of MOTRACE1 trace files read
// through TraceReader / read_trace.
//
// Serve-shaped snapshots (the serve_2000 tenants' chains: 9-12 links, a
// 40% LIR conflict table, capacities of 1.5-5 Mb/s) are framed with
// wire_append_submit and then mutated, RngStream-driven so every run
// replays the same inputs: bytes inside JSON number tokens are replaced,
// bits of binary payloads (counts, shapes, doubles) are flipped, the
// frame is truncated, and the length prefix lies. Every input must decode
// or throw std::invalid_argument (or, when it is a frame prefix, ask for
// more bytes); never crash, read out of bounds or throw anything else,
// which the sanitizer build checks. A frame whose number tokens were
// rewritten must decode to the snapshot the strtod-based parser would
// have produced, bit for bit, or fail exactly when it would have failed.
//
// Trace files get the same treatment: bit flips anywhere (the header
// included), truncation and lying record lengths. Under either
// OnCorruptRecord policy a file must decode or throw std::invalid_argument;
// the strict reader must agree with the in-memory decode_trace, and the
// salvaging reader must throw only over a damaged header and count damage
// exactly when the strict reader throws.
//
// Snapshot JSON documents get structural mutations: members and elements
// deleted, duplicated or renamed, values of another type or wrapped in an
// array, a ragged LIR table or one with a row too many or too few, a link
// dropped or duplicated with its LIR row and column, and documents cut off
// at a token boundary. MeasurementSnapshot::from_json and a JSON submit
// frame must agree: both decode the same snapshot or both throw
// std::invalid_argument. A snapshot that decodes must plan through a
// kLirTable Planner or throw std::invalid_argument.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/snapshot.h"
#include "serve/wire.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/trace_codec.h"

namespace meshopt {
namespace {

constexpr char kNumberAlphabet[] = "0123456789.eE+-";

bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

MeasurementSnapshot serve_snapshot(RngStream& rng) {
  const int links = rng.uniform_int(9, 12);
  MeasurementSnapshot snap;
  for (int i = 0; i < links; ++i) {
    SnapshotLink l;
    l.src = i;
    l.dst = i + 1;
    l.rate = Rate::kR11Mbps;
    l.estimate.capacity_bps = rng.uniform(1.5e6, 5e6);
    l.estimate.p_data = rng.uniform(0.0, 0.1);
    l.estimate.p_ack = rng.uniform(0.0, 0.05);
    l.estimate.p_link = 0.02;
    snap.links.push_back(l);
    snap.neighbors.emplace_back(i, i + 1);
  }
  // Some tenants submit the poisoned loss the repair tier clamps.
  if (rng.bernoulli(0.25)) snap.links.back().estimate.p_data = 1.7;
  snap.lir.resize(links, links, 1.0);
  for (int i = 0; i < links; ++i)
    for (int j = i + 1; j < links; ++j)
      if (rng.bernoulli(0.4)) snap.lir(i, j) = snap.lir(j, i) = 0.4;
  snap.lir_threshold = 0.95;
  return snap;
}

/// [begin, end) of every number token in a JSON document: the maximal
/// runs of number characters outside string literals.
std::vector<std::pair<std::size_t, std::size_t>> number_tokens(
    std::string_view doc) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < doc.size()) {
    if (doc[i] == '"') {
      i = doc.find('"', i + 1) + 1;  // the schema's keys hold no escapes
    } else if (is_number_char(doc[i])) {
      const std::size_t begin = i;
      while (i < doc.size() && is_number_char(doc[i])) ++i;
      spans.emplace_back(begin, i);
    } else {
      ++i;
    }
  }
  return spans;
}

/// The JSON parser's number decision when it ran on strtod: nullopt when
/// the token is rejected, else the double.
std::optional<double> reference_number(std::string_view tok) {
  if (tok.empty() || tok[0] == '+') return std::nullopt;
  const std::string s(tok);
  char* end = nullptr;
  const double d = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return std::nullopt;
  return d;
}

/// A spelling of `v` that any correctly rounding parser reads back as `v`
/// (printf's shortest exact form; strtod's overflow spelling for inf).
std::string canonical_number(double v) {
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

enum class Outcome { kWait, kThrew, kDecoded };

Outcome decode(std::string_view frame, WireFrame& out,
               std::size_t* consumed = nullptr) {
  try {
    const std::size_t n = wire_decode_frame(frame, out);
    if (consumed != nullptr) *consumed = n;
    return n == 0 ? Outcome::kWait : Outcome::kDecoded;
  } catch (const std::invalid_argument&) {
    return Outcome::kThrew;
  }
}

/// Bit-exact snapshot identity: the binary record encoding writes every
/// double's bits, so NaN and -0.0 compare as themselves.
std::string snapshot_bits(const MeasurementSnapshot& snap) {
  std::string out;
  trace_append_snapshot_payload(out, snap);
  return out;
}

std::string submit_frame(const MeasurementSnapshot& snap,
                         std::uint32_t tenant,
                         WireFormat format = WireFormat::kJson) {
  std::string frame;
  wire_append_submit(frame, SubmitRequest{tenant, 7, format, snap});
  return frame;
}

void set_declared_length(std::string& frame, std::uint32_t len) {
  for (int b = 0; b < 4; ++b)
    frame[20 + static_cast<std::size_t>(b)] =
        static_cast<char>((len >> (8 * b)) & 0xff);
}

TEST(WireFuzz, NumberTokenMutationsDecodeLikeStrtodOrThrow) {
  RngStream rng(61, "wire-fuzz-numbers");
  int decoded = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string frame = submit_frame(serve_snapshot(rng), 3);
    std::string payload = frame.substr(kWireHeaderBytes);
    const auto spans = number_tokens(payload);
    ASSERT_FALSE(spans.empty());
    // Rewrite one to three tokens in place with number characters, so
    // the document keeps its structure and only the token text changes.
    for (int k = rng.uniform_int(1, 3); k > 0; --k) {
      const auto [begin, end] =
          spans[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<int>(spans.size()) - 1))];
      for (int f = rng.uniform_int(1, 2); f > 0; --f) {
        const int at = rng.uniform_int(static_cast<int>(begin),
                                       static_cast<int>(end) - 1);
        payload[static_cast<std::size_t>(at)] =
            kNumberAlphabet[rng.uniform_int(0, 14)];
      }
      // Some tokens end in a three-digit exponent, so values past the
      // double range (strtod's inf and 0) come up too.
      if (end - begin >= 6 && rng.bernoulli(0.3)) {
        char* tail = payload.data() + end - 5;
        tail[0] = 'e';
        tail[1] = rng.bernoulli(0.5) ? '+' : '-';
        for (int d = 2; d < 5; ++d)
          tail[d] = static_cast<char>('0' + rng.uniform_int(0, 9));
      }
    }
    std::string mutated = frame.substr(0, kWireHeaderBytes) + payload;

    // The reference: every token read by strtod, then spelled canonically.
    bool tokens_ok = true;
    std::string canonical;
    std::size_t at = 0;
    for (const auto& [begin, end] : spans) {
      const auto v = reference_number(
          std::string_view(payload).substr(begin, end - begin));
      if (!v) {
        tokens_ok = false;
        break;
      }
      canonical.append(payload, at, begin - at);
      canonical += canonical_number(*v);
      at = end;
    }
    std::optional<MeasurementSnapshot> want;
    if (tokens_ok) {
      canonical.append(payload, at);
      try {
        want = MeasurementSnapshot::from_json(canonical);
      } catch (const std::invalid_argument&) {
      }
    }

    WireFrame out;
    const Outcome got = decode(mutated, out);
    ASSERT_NE(got, Outcome::kWait) << "iter " << iter;
    if (want) {
      ASSERT_EQ(got, Outcome::kDecoded)
          << "iter " << iter << ": " << payload;
      ASSERT_EQ(snapshot_bits(out.snapshot), snapshot_bits(*want))
          << "iter " << iter << ": " << payload;
      ++decoded;
    } else {
      ASSERT_EQ(got, Outcome::kThrew)
          << "iter " << iter << ": " << payload;
      ++rejected;
    }
  }
  // Both branches of the invariant ran many times.
  EXPECT_GT(decoded, 500);
  EXPECT_GT(rejected, 500);
}

TEST(WireFuzz, ArbitraryByteFlipsDecodeOrThrow) {
  RngStream rng(67, "wire-fuzz-flips");
  for (int iter = 0; iter < 4000; ++iter) {
    const MeasurementSnapshot snap = serve_snapshot(rng);
    std::string frame = submit_frame(snap, 5);
    const auto spans =
        number_tokens(std::string_view(frame).substr(kWireHeaderBytes));
    for (int k = rng.uniform_int(1, 4); k > 0; --k) {
      const auto [begin, end] =
          spans[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<int>(spans.size()) - 1))];
      const int at = rng.uniform_int(static_cast<int>(begin),
                                     static_cast<int>(end) - 1);
      frame[kWireHeaderBytes + static_cast<std::size_t>(at)] ^=
          static_cast<char>(1 << rng.uniform_int(0, 7));
    }
    WireFrame out;
    std::size_t consumed = 0;
    const Outcome got = decode(frame, out, &consumed);
    ASSERT_NE(got, Outcome::kWait) << "iter " << iter;
    if (got == Outcome::kDecoded) ASSERT_EQ(consumed, frame.size());
  }
}

TEST(WireFuzz, TruncatedFramesWaitOrThrow) {
  for (const WireFormat format : {WireFormat::kJson, WireFormat::kBinary}) {
    RngStream rng(format == WireFormat::kJson ? 71 : 83, "wire-fuzz-truncate");
    for (int iter = 0; iter < 4000; ++iter) {
      const std::string frame = submit_frame(serve_snapshot(rng), 9, format);
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(frame.size()) - 1));
      WireFrame out;
      // A prefix of an honest frame is "wait for more bytes".
      ASSERT_EQ(decode(std::string_view(frame).substr(0, cut), out),
                Outcome::kWait)
          << "cut " << cut;
      // The same prefix with its length prefix made to agree: the payload
      // is a proper prefix of a JSON object, never a document, or of a
      // MOTRACE1 record, where some field or table is always cut short.
      if (cut < kWireHeaderBytes) continue;
      std::string shortened = frame.substr(0, cut);
      set_declared_length(shortened,
                          static_cast<std::uint32_t>(cut - kWireHeaderBytes));
      ASSERT_EQ(decode(shortened, out), Outcome::kThrew) << "cut " << cut;
    }
  }
}

TEST(WireFuzz, LyingLengthPrefixesWaitOrThrow) {
  for (const WireFormat format : {WireFormat::kJson, WireFormat::kBinary}) {
    RngStream rng(format == WireFormat::kJson ? 73 : 89, "wire-fuzz-length");
    for (int iter = 0; iter < 4000; ++iter) {
      std::string frame = submit_frame(serve_snapshot(rng), 11, format);
      const auto honest =
          static_cast<std::int64_t>(frame.size() - kWireHeaderBytes);
      std::int64_t lie = 0;
      switch (rng.uniform_int(0, 2)) {
        case 0:  // off by a little, either way
          lie = honest + rng.uniform_int(-16, 16);
          break;
        case 1:  // anywhere in the payload
          lie = rng.uniform_int(0, static_cast<int>(honest));
          break;
        default:  // any 32-bit value, up to far past the frame size limit
          lie = static_cast<std::int64_t>(rng.next_u64() & 0xffffffffu);
          break;
      }
      if (lie < 0) lie = 0;
      if (lie == honest) continue;
      set_declared_length(frame, static_cast<std::uint32_t>(lie));
      WireFrame out;
      const Outcome got = decode(frame, out);
      if (lie > honest && lie <= kWireMaxPayloadBytes) {
        ASSERT_EQ(got, Outcome::kWait) << "lie " << lie;
      } else {
        // Past the frame size limit, or a payload cut short: both throw.
        ASSERT_EQ(got, Outcome::kThrew) << "lie " << lie;
      }
    }
  }
}

TEST(WireFuzz, BinaryBitFlipsDecodeOrThrow) {
  // Flips land anywhere in the MOTRACE1 payload: link, neighbor and LIR
  // counts (a lying count must fail its bounds check, not drive a huge
  // allocation or an out-of-range read), enum and integer fields, and
  // doubles (any bit pattern is a value the decoder must carry).
  RngStream rng(79, "wire-fuzz-binary-flips");
  int decoded = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string frame =
        submit_frame(serve_snapshot(rng), 13, WireFormat::kBinary);
    const int payload = static_cast<int>(frame.size() - kWireHeaderBytes);
    // Every fourth frame has its flips in the leading link count.
    const int span = iter % 4 == 0 ? 4 : payload;
    for (int k = rng.uniform_int(1, 4); k > 0; --k) {
      const int at = rng.uniform_int(0, span - 1);
      frame[kWireHeaderBytes + static_cast<std::size_t>(at)] ^=
          static_cast<char>(1 << rng.uniform_int(0, 7));
    }
    WireFrame out;
    std::size_t consumed = 0;
    const Outcome got = decode(frame, out, &consumed);
    ASSERT_NE(got, Outcome::kWait) << "iter " << iter;
    if (got == Outcome::kDecoded) {
      ASSERT_EQ(consumed, frame.size());
      ASSERT_EQ(out.format, WireFormat::kBinary);
      ++decoded;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 500);
  EXPECT_GT(rejected, 500);
}

// ------------------------------------------------------ MOTRACE1 files

/// A MOTRACE1 file of 1-4 serve-shaped snapshots, with the byte offset of
/// each record's length prefix.
struct TraceFile {
  std::vector<MeasurementSnapshot> rounds;
  std::string bytes;
  std::vector<std::size_t> record_at;
};

TraceFile trace_file(RngStream& rng) {
  TraceFile t;
  t.bytes = trace_header();
  for (int r = rng.uniform_int(1, 4); r > 0; --r) {
    t.rounds.push_back(serve_snapshot(rng));
    t.record_at.push_back(t.bytes.size());
    trace_append_record(t.bytes, t.rounds.back());
  }
  return t;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

/// One policy's reading of a trace: the decoded records' bits, the
/// corrupt-record count, or that std::invalid_argument was thrown. Any
/// other exception escapes and fails the test.
struct TraceRead {
  bool threw = false;
  std::vector<std::string> records;
  int corrupt = 0;
};

std::vector<std::string> record_bits(
    const std::vector<MeasurementSnapshot>& rounds) {
  std::vector<std::string> bits;
  for (const MeasurementSnapshot& s : rounds) bits.push_back(snapshot_bits(s));
  return bits;
}

/// Strict reading through TraceReader: after its first throw the reader
/// is poisoned and every further next() throws std::runtime_error.
TraceRead read_strict(const std::string& path) {
  TraceRead out;
  try {
    TraceReader reader(path);
    MeasurementSnapshot snap;
    try {
      while (reader.next(snap)) out.records.push_back(snapshot_bits(snap));
    } catch (const std::invalid_argument&) {
      out.threw = true;
      EXPECT_THROW(reader.next(snap), std::runtime_error);
    }
  } catch (const std::invalid_argument&) {
    out.threw = true;  // the header
  }
  return out;
}

TraceRead read_salvage(const std::string& path) {
  TraceRead out;
  try {
    out.records = record_bits(
        read_trace(path, OnCorruptRecord::kSkipAndCount, &out.corrupt));
  } catch (const std::invalid_argument&) {
    out.threw = true;
  }
  return out;
}

/// Reads `bytes` as a file under both policies and checks the invariants
/// that hold for any input; returns the salvaging read.
TraceRead check_trace_file(const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "meshopt-fuzz.trace";
  write_file(path, bytes);
  const TraceRead strict = read_strict(path);
  const TraceRead salvage = read_salvage(path);
  std::remove(path.c_str());

  // The file reader and the in-memory decoder agree.
  bool memory_threw = false;
  std::vector<std::string> memory;
  try {
    memory = record_bits(decode_trace(bytes));
  } catch (const std::invalid_argument&) {
    memory_threw = true;
  }
  EXPECT_EQ(strict.threw, memory_threw);
  if (!strict.threw) {
    EXPECT_EQ(strict.records, memory);
  }

  // Salvage throws only over a damaged header; past it, it counts damage
  // exactly when the strict reader throws, and agrees with it otherwise.
  const std::string header = trace_header();
  const bool header_intact = bytes.compare(0, header.size(), header) == 0;
  EXPECT_EQ(salvage.threw, !header_intact);
  EXPECT_EQ(strict.threw, salvage.threw || salvage.corrupt > 0);
  if (!strict.threw) {
    EXPECT_EQ(salvage.records, strict.records);
  }
  return salvage;
}

bool is_prefix(const std::vector<std::string>& head,
               const std::vector<std::string>& whole) {
  return head.size() <= whole.size() &&
         std::equal(head.begin(), head.end(), whole.begin());
}

TEST(TraceFuzz, BitFlipsDecodeOrThrow) {
  RngStream rng(97, "trace-fuzz-flips");
  int clean = 0;
  int damaged = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    TraceFile t = trace_file(rng);
    // Every fourth file has its flips in the header, every fourth in the
    // first record's length prefix and link count, the rest anywhere
    // (length prefixes, counts, enums and doubles alike).
    const int header = static_cast<int>(trace_header().size());
    int lo = 0;
    int hi = static_cast<int>(t.bytes.size());
    if (iter % 4 == 0) hi = header;
    if (iter % 4 == 1) {
      lo = header;
      hi = header + 8;
    }
    for (int k = rng.uniform_int(1, 4); k > 0; --k) {
      const int at = rng.uniform_int(lo, hi - 1);
      t.bytes[static_cast<std::size_t>(at)] ^=
          static_cast<char>(1 << rng.uniform_int(0, 7));
    }
    const TraceRead salvage = check_trace_file(t.bytes);
    if (HasFailure()) FAIL() << "iter " << iter;
    (salvage.threw || salvage.corrupt > 0 ? damaged : clean) += 1;
  }
  EXPECT_GT(clean, 500);
  EXPECT_GT(damaged, 500);
}

TEST(TraceFuzz, TruncatedFilesDecodeOrThrow) {
  RngStream rng(101, "trace-fuzz-truncate");
  for (int iter = 0; iter < 1500; ++iter) {
    const TraceFile t = trace_file(rng);
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(t.bytes.size()) - 1));
    const TraceRead salvage = check_trace_file(t.bytes.substr(0, cut));
    if (HasFailure()) FAIL() << "iter " << iter << " cut " << cut;
    // A cut loses the tail: what survives is a prefix of the trace, and
    // the damage is at most one corrupt tail.
    if (!salvage.threw) {
      EXPECT_TRUE(is_prefix(salvage.records, record_bits(t.rounds)));
      EXPECT_LE(salvage.corrupt, 1);
    }
  }
}

TEST(TraceFuzz, LyingRecordLengthsDecodeOrThrow) {
  RngStream rng(103, "trace-fuzz-length");
  for (int iter = 0; iter < 1500; ++iter) {
    TraceFile t = trace_file(rng);
    const int victim =
        rng.uniform_int(0, static_cast<int>(t.record_at.size()) - 1);
    const std::size_t at = t.record_at[static_cast<std::size_t>(victim)];
    const auto honest = static_cast<std::int64_t>(
        (victim + 1 < static_cast<int>(t.record_at.size())
             ? t.record_at[static_cast<std::size_t>(victim) + 1]
             : t.bytes.size()) -
        at - 4);
    std::int64_t lie = 0;
    switch (rng.uniform_int(0, 2)) {
      case 0:  // off by a little, either way
        lie = honest + rng.uniform_int(-16, 16);
        break;
      case 1:  // anywhere up to the end of the file
        lie = rng.uniform_int(0, static_cast<int>(t.bytes.size()));
        break;
      default:  // any 32-bit value
        lie = static_cast<std::int64_t>(rng.next_u64() & 0xffffffffu);
        break;
    }
    if (lie < 0) lie = 0;
    if (lie == honest) continue;
    for (int b = 0; b < 4; ++b)
      t.bytes[at + static_cast<std::size_t>(b)] =
          static_cast<char>((static_cast<std::uint64_t>(lie) >> (8 * b)) &
                            0xff);
    const TraceRead salvage = check_trace_file(t.bytes);
    if (HasFailure()) FAIL() << "iter " << iter << " lie " << lie;
    // The records before the lying one are untouched.
    ASSERT_FALSE(salvage.threw);
    ASSERT_GE(salvage.records.size(), static_cast<std::size_t>(victim));
    const std::vector<std::string> all = record_bits(t.rounds);
    EXPECT_TRUE(std::equal(all.begin(), all.begin() + victim,
                           salvage.records.begin()));
    EXPECT_GE(salvage.corrupt, 1);
  }
}

// ------------------------------------------------- JSON document structure

/// A mutable copy of a parsed JSON document: scalars keep their spelling,
/// arrays and objects their children in order (array keys are empty).
struct JsonNode {
  JsonValue::Type type = JsonValue::Type::kNull;
  std::string scalar;
  std::vector<std::pair<std::string, JsonNode>> kids;
};

JsonNode to_node(const JsonValue& v) {
  JsonNode n;
  n.type = v.type();
  switch (v.type()) {
    case JsonValue::Type::kNull:
      n.scalar = "null";
      break;
    case JsonValue::Type::kBool:
      n.scalar = v.as_bool() ? "true" : "false";
      break;
    case JsonValue::Type::kNumber:
      n.scalar = canonical_number(v.as_number());
      break;
    case JsonValue::Type::kString:
      json_append_string(n.scalar, v.as_string());
      break;
    case JsonValue::Type::kArray:
      for (const JsonValue& item : v.items())
        n.kids.emplace_back("", to_node(item));
      break;
    case JsonValue::Type::kObject:
      for (const auto& [key, member] : v.members())
        n.kids.emplace_back(key, to_node(member));
      break;
  }
  return n;
}

void append_node(std::string& out, const JsonNode& n) {
  const bool object = n.type == JsonValue::Type::kObject;
  if (!object && n.type != JsonValue::Type::kArray) {
    out += n.scalar;
    return;
  }
  out.push_back(object ? '{' : '[');
  for (std::size_t i = 0; i < n.kids.size(); ++i) {
    if (i > 0) out.push_back(',');
    if (object) {
      json_append_string(out, n.kids[i].first);
      out.push_back(':');
    }
    append_node(out, n.kids[i].second);
  }
  out.push_back(object ? '}' : ']');
}

void collect_nodes(JsonNode& n, std::vector<JsonNode*>& all) {
  all.push_back(&n);
  for (auto& kid : n.kids) collect_nodes(kid.second, all);
}

template <class T>
T& pick(RngStream& rng, std::vector<T>& v) {
  return v[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(v.size()) - 1))];
}

/// A value of another JSON type than `type`.
JsonNode other_type(RngStream& rng, JsonValue::Type type) {
  static const char* const kScalars[][2] = {
      {"null", nullptr}, {"true", "false"}, {"0.5", "-1"}, {"\"x\"", "\"\""}};
  for (;;) {
    const auto t = static_cast<JsonValue::Type>(rng.uniform_int(0, 5));
    if (t == type) continue;
    JsonNode n;
    n.type = t;
    const auto at = static_cast<std::size_t>(t);
    if (at < 4) {
      const bool second = kScalars[at][1] != nullptr && rng.bernoulli(0.5);
      n.scalar = kScalars[at][second ? 1 : 0];
    } else if (rng.bernoulli(0.5)) {
      JsonNode one;
      one.type = JsonValue::Type::kNumber;
      one.scalar = "1";
      n.kids.emplace_back(t == JsonValue::Type::kObject ? "src" : "", one);
    }
    return n;
  }
}

/// The first member of `obj` named `key`, or nullptr.
JsonNode* member(JsonNode& obj, std::string_view key) {
  if (obj.type != JsonValue::Type::kObject) return nullptr;
  for (auto& [name, value] : obj.kids)
    if (name == key) return &value;
  return nullptr;
}

template <class T>
void erase_at(std::vector<T>& v, std::size_t at) {
  if (at < v.size()) v.erase(v.begin() + static_cast<std::ptrdiff_t>(at));
}

template <class T>
void duplicate_at(std::vector<T>& v, std::size_t at) {
  if (at >= v.size()) return;
  T copy = v[at];
  v.insert(v.begin() + static_cast<std::ptrdiff_t>(at), std::move(copy));
}

/// One structural mutation of `doc`: delete, duplicate or rename a member
/// or element, change a value's type, wrap a value in an array, make the
/// LIR table ragged or give it a row too many or too few, or drop or
/// duplicate a link together with its LIR row and column.
void mutate_structure(RngStream& rng, JsonNode& doc) {
  static const char* const kKeys[] = {
      "version", "links",  "neighbors", "lir_threshold", "lir",   "src",
      "dst",     "rate",   "retry_limit", "p_data",      "p_ack", "p_link",
      "capacity_bps"};
  std::vector<JsonNode*> all;
  collect_nodes(doc, all);
  // Containers are picked from the document and its top-level members
  // half the time, so that links and whole members are often the target.
  std::vector<JsonNode*> containers;
  std::vector<JsonNode*> top;
  std::vector<JsonNode*> objects;
  for (JsonNode* n : all) {
    if (n->kids.empty()) continue;
    containers.push_back(n);
    if (n->type == JsonValue::Type::kObject) objects.push_back(n);
  }
  if (!doc.kids.empty()) top.push_back(&doc);
  for (auto& kid : doc.kids)
    if (!kid.second.kids.empty()) top.push_back(&kid.second);
  auto pick_container = [&]() -> JsonNode* {
    if (containers.empty()) return nullptr;
    return pick(rng, !top.empty() && rng.bernoulli(0.5) ? top : containers);
  };
  JsonNode* links = member(doc, "links");
  JsonNode* lir = member(doc, "lir");
  if (lir != nullptr &&
      (lir->type != JsonValue::Type::kArray || lir->kids.empty()))
    lir = nullptr;

  switch (rng.uniform_int(0, 6)) {
    case 0:  // delete a member or an element
      if (JsonNode* n = pick_container()) {
        erase_at(n->kids, static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<int>(n->kids.size()) - 1)));
      }
      break;
    case 1:  // duplicate one, next to the original or anywhere
      if (JsonNode* n = pick_container()) {
        auto copy = pick(rng, n->kids);
        const int at = rng.uniform_int(0, static_cast<int>(n->kids.size()));
        n->kids.insert(n->kids.begin() + at, std::move(copy));
      }
      break;
    case 2:  // rename a member: to another schema key, or misspelled
      if (!objects.empty()) {
        std::string& key = pick(rng, pick(rng, objects)->kids).first;
        switch (rng.uniform_int(0, 2)) {
          case 0:
            key = kKeys[rng.uniform_int(0, 12)];
            break;
          case 1:
            key += "_";
            break;
          default:
            key = key.empty() ? "x" : key.substr(1);
            break;
        }
      }
      break;
    case 3: {  // another type in a value's place
      JsonNode& n = *pick(rng, all);
      n = other_type(rng, n.type);
      break;
    }
    case 4: {  // wrap a value in an array
      JsonNode& n = *pick(rng, all);
      JsonNode wrapped;
      wrapped.type = JsonValue::Type::kArray;
      wrapped.kids.emplace_back("", std::move(n));
      n = std::move(wrapped);
      break;
    }
    case 5:  // a ragged LIR, or one row too many or too few
      if (lir != nullptr) {
        auto& kids = rng.bernoulli(0.5) ? lir->kids
                                        : pick(rng, lir->kids).second.kids;
        if (kids.empty()) break;
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(kids.size()) - 1));
        if (rng.bernoulli(0.5))
          erase_at(kids, at);
        else
          duplicate_at(kids, at);
      }
      break;
    default:  // a link dropped or duplicated with its LIR row and column
      if (links != nullptr && !links->kids.empty()) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(links->kids.size()) - 1));
        const bool drop = rng.bernoulli(0.5);
        auto edit = [&](auto& kids) {
          if (drop)
            erase_at(kids, at);
          else
            duplicate_at(kids, at);
        };
        edit(links->kids);
        if (lir != nullptr) {
          edit(lir->kids);
          for (auto& row : lir->kids) edit(row.second.kids);
        }
      }
      break;
  }
}

/// End offset of every token of a JSON document (punctuation, strings,
/// and runs of number or literal characters).
std::vector<std::size_t> token_ends(std::string_view doc) {
  std::vector<std::size_t> ends;
  std::size_t i = 0;
  while (i < doc.size()) {
    const char c = doc[i];
    if (c == '"') {
      for (++i; i < doc.size() && doc[i] != '"'; ++i)
        if (doc[i] == '\\') ++i;
      ++i;
    } else if (std::string_view("{}[]:,").find(c) != std::string_view::npos) {
      ++i;
    } else {
      while (i < doc.size() &&
             std::string_view("{}[]:,\"").find(doc[i]) ==
                 std::string_view::npos)
        ++i;
    }
    ends.push_back(std::min(i, doc.size()));
  }
  return ends;
}

/// from_json's reading of `doc`: the snapshot, or nullopt when it threw
/// std::invalid_argument. Any other exception fails the test.
std::optional<MeasurementSnapshot> parse_snapshot(std::string_view doc) {
  try {
    return MeasurementSnapshot::from_json(doc);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

TEST(JsonFuzz, StructuralMutationsDecodeOrThrowAndPlanOrThrow) {
  RngStream rng(107, "json-fuzz-structure");
  const std::vector<FlowSpec> flows = {
      {0, {0, 1, 2, 3}, false}, {1, {3, 4, 5}, false}, {2, {6, 7, 8}, false}};
  PlanConfig tiers[2];
  tiers[1].tier = PlanTier::kFast;
  Planner planner;  // shared, so mutated topologies meet in its cache
  int rejected = 0;
  int planned = 0;
  int plan_threw = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string honest = submit_frame(serve_snapshot(rng), 17);
    JsonNode doc = to_node(
        JsonValue::parse(std::string_view(honest).substr(kWireHeaderBytes)));
    // One mutation in half the documents, so that many still decode.
    for (int k = rng.bernoulli(0.5) ? 1 : rng.uniform_int(2, 3); k > 0; --k)
      mutate_structure(rng, doc);
    std::string text;
    append_node(text, doc);
    // Every fourth document is cut off after one of its tokens: a proper
    // prefix of any document is not a document.
    const bool cut = iter % 4 == 0;
    if (cut) {
      std::vector<std::size_t> ends = token_ends(text);
      ends.back() = 0;  // the empty prefix, not the whole document
      text.resize(pick(rng, ends));
    }

    const std::optional<MeasurementSnapshot> snap = parse_snapshot(text);
    std::string frame = honest.substr(0, kWireHeaderBytes) + text;
    set_declared_length(frame, static_cast<std::uint32_t>(text.size()));
    WireFrame out;
    std::size_t consumed = 0;
    const Outcome got = decode(frame, out, &consumed);
    ASSERT_EQ(got, snap ? Outcome::kDecoded : Outcome::kThrew)
        << "iter " << iter << ": " << text;
    if (cut) ASSERT_FALSE(snap) << "iter " << iter << ": " << text;
    if (!snap) {
      ++rejected;
      continue;
    }
    ASSERT_EQ(consumed, frame.size());
    ASSERT_EQ(snapshot_bits(out.snapshot), snapshot_bits(*snap))
        << "iter " << iter;
    try {
      (void)planner.plan(*snap, InterferenceModelKind::kLirTable, flows,
                         tiers[iter % 2]);
      ++planned;
    } catch (const std::invalid_argument&) {
      ++plan_threw;
    }
  }
  // Each branch of the invariant ran many times.
  EXPECT_GT(rejected, 2000);
  EXPECT_GT(planned, 300);
  EXPECT_GT(plan_threw, 40);
}

}  // namespace
}  // namespace meshopt
