#include "util/trace_codec.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "util/json.h"

namespace meshopt {

namespace {

constexpr char kMagic[8] = {'M', 'O', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4;

// Little-endian primitive appenders. Explicit byte shifts (rather than
// memcpy of host integers) keep the on-disk format identical on any host.
void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  put_u32(out, static_cast<std::uint32_t>(bits & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(bits >> 32));
}

/// Bounds-checked little-endian cursor over a record payload.
class Cursor {
 public:
  Cursor(const char* data, std::size_t size) : p_(data), end_(data + size) {}

  std::uint32_t u32() {
    need(4);
    const auto* b = reinterpret_cast<const unsigned char*>(p_);
    p_ += 4;
    return static_cast<std::uint32_t>(b[0]) |
           static_cast<std::uint32_t>(b[1]) << 8 |
           static_cast<std::uint32_t>(b[2]) << 16 |
           static_cast<std::uint32_t>(b[3]) << 24;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

  double f64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return std::bit_cast<double>(lo | hi << 32);
  }

  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  void need(std::size_t n) {
    if (remaining() < n)
      throw std::invalid_argument("trace: record payload truncated");
  }

  const char* p_;
  const char* end_;
};

void encode_snapshot(std::string& out, const MeasurementSnapshot& snap) {
  put_u32(out, static_cast<std::uint32_t>(snap.links.size()));
  for (const SnapshotLink& l : snap.links) {
    put_i32(out, l.src);
    put_i32(out, l.dst);
    put_u32(out, static_cast<std::uint32_t>(l.rate));
    put_i32(out, l.retry_limit);
    put_f64(out, l.estimate.p_data);
    put_f64(out, l.estimate.p_ack);
    put_f64(out, l.estimate.p_link);
    put_f64(out, l.estimate.capacity_bps);
  }
  put_u32(out, static_cast<std::uint32_t>(snap.neighbors.size()));
  for (const auto& [a, b] : snap.neighbors) {
    put_i32(out, a);
    put_i32(out, b);
  }
  put_f64(out, snap.lir_threshold);
  put_u32(out, static_cast<std::uint32_t>(snap.lir.rows()));
  put_u32(out, static_cast<std::uint32_t>(snap.lir.cols()));
  for (int r = 0; r < snap.lir.rows(); ++r)
    for (int c = 0; c < snap.lir.cols(); ++c) put_f64(out, snap.lir(r, c));
}

MeasurementSnapshot decode_snapshot(const char* data, std::size_t size) {
  Cursor cur(data, size);
  MeasurementSnapshot snap;

  const std::uint32_t nlinks = cur.u32();
  // 48 bytes per link: reject counts the remaining payload cannot hold
  // before reserving (a corrupt count must not drive a huge allocation).
  if (static_cast<std::size_t>(nlinks) * 48 > cur.remaining())
    throw std::invalid_argument("trace: link count exceeds record payload");
  snap.links.reserve(nlinks);
  for (std::uint32_t i = 0; i < nlinks; ++i) {
    SnapshotLink l;
    l.src = cur.i32();
    l.dst = cur.i32();
    const std::uint32_t rate_code = cur.u32();
    set_decoded_link_config(l, rate_code, cur.i32());
    l.estimate.p_data = cur.f64();
    l.estimate.p_ack = cur.f64();
    l.estimate.p_link = cur.f64();
    l.estimate.capacity_bps = cur.f64();
    snap.links.push_back(l);
  }

  const std::uint32_t npairs = cur.u32();
  if (static_cast<std::size_t>(npairs) * 8 > cur.remaining())
    throw std::invalid_argument(
        "trace: neighbor count exceeds record payload");
  snap.neighbors.reserve(npairs);
  for (std::uint32_t i = 0; i < npairs; ++i) {
    const NodeId a = cur.i32();
    const NodeId b = cur.i32();
    // Normalize externally-produced records to the sorted first<second
    // invariant is_neighbor's binary search relies on, exactly as the
    // JSON decoder does (our own writer always emits normalized pairs).
    snap.neighbors.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(snap.neighbors.begin(), snap.neighbors.end());
  snap.neighbors.erase(
      std::unique(snap.neighbors.begin(), snap.neighbors.end()),
      snap.neighbors.end());

  snap.lir_threshold = cur.f64();
  const std::uint32_t rows = cur.u32();
  const std::uint32_t cols = cur.u32();
  // Enforce squareness here, where the JSON decoder does, so a bad table
  // fails at decode rather than deep inside a replay worker.
  if (rows != cols)
    throw std::invalid_argument("trace: LIR table must be square");
  // Multiply in 64 bits and compare against remaining/8: a hostile shape
  // like 2^31 x 2^31 must fail the bounds check, not wrap it.
  if (static_cast<std::uint64_t>(rows) * cols > cur.remaining() / 8)
    throw std::invalid_argument("trace: LIR shape exceeds record payload");
  if (rows > 0 && cols > 0) {
    snap.lir.resize(static_cast<int>(rows), static_cast<int>(cols));
    for (std::uint32_t r = 0; r < rows; ++r)
      for (std::uint32_t c = 0; c < cols; ++c)
        snap.lir(static_cast<int>(r), static_cast<int>(c)) = cur.f64();
  }
  if (cur.remaining() != 0)
    throw std::invalid_argument("trace: trailing bytes inside record");
  return snap;
}

void check_header(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes)
    throw std::invalid_argument("trace: missing file header");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    throw std::invalid_argument("trace: bad magic (not a meshopt trace)");
  Cursor cur(bytes.data() + sizeof(kMagic), kHeaderBytes - sizeof(kMagic));
  const std::uint32_t version = cur.u32();
  if (version != kTraceVersion)
    throw std::invalid_argument("trace: unsupported container version");
  // Version 1 defines no flags: reject unknown ones rather than silently
  // misdecoding a future writer's extended payload.
  if (cur.u32() != 0)
    throw std::invalid_argument("trace: unknown container flags");
}

FILE* as_file(void* p) { return static_cast<FILE*>(p); }

}  // namespace

// -------------------------------------------------------------- in-memory

void trace_append_record(std::string& out, const MeasurementSnapshot& snap) {
  const std::size_t len_at = out.size();
  put_u32(out, 0);  // patched below once the payload length is known
  encode_snapshot(out, snap);
  const std::size_t payload = out.size() - len_at - 4;
  if (payload > 0xffffffffu) {
    out.resize(len_at);  // leave the trace well-formed
    throw std::invalid_argument(
        "trace: snapshot payload exceeds the 4 GiB record limit");
  }
  out[len_at] = static_cast<char>(payload & 0xff);
  out[len_at + 1] = static_cast<char>((payload >> 8) & 0xff);
  out[len_at + 2] = static_cast<char>((payload >> 16) & 0xff);
  out[len_at + 3] = static_cast<char>((payload >> 24) & 0xff);
}

void trace_append_snapshot_payload(std::string& out,
                                   const MeasurementSnapshot& snap) {
  encode_snapshot(out, snap);
}

MeasurementSnapshot decode_snapshot_payload(std::string_view payload) {
  return decode_snapshot(payload.data(), payload.size());
}

std::string trace_header() {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kTraceVersion);
  put_u32(out, 0);  // flags
  return out;
}

std::string encode_trace(const std::vector<MeasurementSnapshot>& rounds) {
  std::string out = trace_header();
  for (const MeasurementSnapshot& snap : rounds)
    trace_append_record(out, snap);
  return out;
}

std::vector<MeasurementSnapshot> decode_trace(std::string_view bytes) {
  check_header(bytes);
  std::vector<MeasurementSnapshot> rounds;
  std::size_t at = kHeaderBytes;
  while (at < bytes.size()) {
    if (bytes.size() - at < 4)
      throw std::invalid_argument("trace: truncated record length");
    Cursor len_cur(bytes.data() + at, 4);
    const std::uint32_t payload = len_cur.u32();
    at += 4;
    if (bytes.size() - at < payload)
      throw std::invalid_argument("trace: truncated record payload");
    rounds.push_back(decode_snapshot(bytes.data() + at, payload));
    at += payload;
  }
  return rounds;
}

// ------------------------------------------------------------------ files

TraceWriter::TraceWriter(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("TraceWriter: cannot create " + path);
  file_ = f;
  const std::string header = trace_header();
  if (std::fwrite(header.data(), 1, header.size(), f) != header.size()) {
    std::fclose(f);
    file_ = nullptr;
    throw std::runtime_error("TraceWriter: short header write to " + path);
  }
}

TraceWriter::~TraceWriter() {
  if (file_ != nullptr) std::fclose(as_file(file_));
}

void TraceWriter::write(const MeasurementSnapshot& snap) {
  if (file_ == nullptr)
    throw std::runtime_error("TraceWriter: write after close or failure");
  scratch_.clear();
  trace_append_record(scratch_, snap);
  if (std::fwrite(scratch_.data(), 1, scratch_.size(), as_file(file_)) !=
      scratch_.size()) {
    // Poison the writer: a partial record is on disk, so appending more
    // would misalign the stream. The file keeps its cleanly detectable
    // truncated tail; further write() calls fail fast.
    std::fclose(as_file(file_));
    file_ = nullptr;
    throw std::runtime_error("TraceWriter: short record write");
  }
  ++rounds_;
}

void TraceWriter::close() {
  if (file_ == nullptr) return;
  const int rc = std::fclose(as_file(file_));
  file_ = nullptr;
  if (rc != 0) throw std::runtime_error("TraceWriter: close failed");
}

TraceReader::TraceReader(const std::string& path, OnCorruptRecord policy)
    : policy_(policy) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw std::runtime_error("TraceReader: cannot open " + path);
  file_ = f;
  char header[kHeaderBytes];
  const std::size_t got = std::fread(header, 1, sizeof(header), f);
  try {
    check_header(std::string_view(header, got));
    // Pin the file size so a corrupt record length prefix is rejected
    // against it before any buffer is sized (a hostile 0xffffffff must
    // throw, not attempt a 4 GiB allocation). std::filesystem gives a
    // 64-bit size on every platform (long ftell would cap at 2 GiB on
    // LLP64 systems).
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec) throw std::runtime_error("TraceReader: cannot size " + path);
    file_bytes_ = static_cast<long long>(size);
    consumed_ = static_cast<long long>(kHeaderBytes);
  } catch (...) {
    std::fclose(f);
    file_ = nullptr;
    throw;
  }
}

TraceReader::~TraceReader() {
  if (file_ != nullptr) std::fclose(as_file(file_));
}

bool TraceReader::next(MeasurementSnapshot& out) {
  if (failed_)
    throw std::runtime_error(
        "TraceReader: reader poisoned by an earlier record error");
  if (file_ == nullptr) return false;
  try {
    return next_impl(out);
  } catch (...) {
    // The stream position is no longer trustworthy — a caller that
    // catches and retries must not decode misaligned bytes as records.
    failed_ = true;
    std::fclose(as_file(file_));
    file_ = nullptr;
    throw;
  }
}

bool TraceReader::give_up_tail() {
  // kSkipAndCount over damaged FRAMING: with no trustworthy length prefix
  // there is no resync point, so the remaining bytes are one corrupt tail.
  // Count it and report a clean end — the intact prefix is the salvage.
  ++corrupt_;
  std::fclose(as_file(file_));
  file_ = nullptr;
  return false;
}

bool TraceReader::next_impl(MeasurementSnapshot& out) {
  const bool salvage = policy_ == OnCorruptRecord::kSkipAndCount;
  for (;;) {
    FILE* f = as_file(file_);
    unsigned char len_bytes[4];
    const std::size_t got = std::fread(len_bytes, 1, 4, f);
    // An I/O failure is a file problem (std::runtime_error, as the
    // constructor contract), not a malformed trace — callers that
    // quarantine traces on std::invalid_argument must not destroy a good
    // file over a transient disk error. It propagates under EITHER
    // policy, for the same reason.
    if (got != 4 && std::ferror(f) != 0)
      throw std::runtime_error("trace: read error");
    if (got == 0 && std::feof(f)) return false;  // clean end of trace
    if (got != 4) {
      if (salvage) return give_up_tail();
      throw std::invalid_argument("trace: truncated record length");
    }
    const std::uint32_t payload =
        static_cast<std::uint32_t>(len_bytes[0]) |
        static_cast<std::uint32_t>(len_bytes[1]) << 8 |
        static_cast<std::uint32_t>(len_bytes[2]) << 16 |
        static_cast<std::uint32_t>(len_bytes[3]) << 24;
    consumed_ += 4;
    if (static_cast<long long>(payload) > file_bytes_ - consumed_) {
      if (salvage) return give_up_tail();
      throw std::invalid_argument("trace: record length exceeds file size");
    }
    consumed_ += static_cast<long long>(payload);
    scratch_.resize(payload);
    if (payload > 0 &&
        std::fread(scratch_.data(), 1, payload, f) != payload) {
      if (std::ferror(f) != 0) throw std::runtime_error("trace: read error");
      if (salvage) return give_up_tail();
      throw std::invalid_argument("trace: truncated record payload");
    }
    // From here the stream already sits at the next record: a payload
    // that fails to DECODE is individually skippable — the length-prefix
    // framing is exactly what makes this safe.
    if (salvage) {
      try {
        out = decode_snapshot(scratch_.data(), payload);
      } catch (const std::invalid_argument&) {
        ++corrupt_;
        continue;
      }
    } else {
      out = decode_snapshot(scratch_.data(), payload);
    }
    ++rounds_;
    return true;
  }
}

std::vector<MeasurementSnapshot> read_trace(const std::string& path,
                                            OnCorruptRecord policy,
                                            int* corrupt_records) {
  TraceReader reader(path, policy);
  std::vector<MeasurementSnapshot> rounds;
  MeasurementSnapshot snap;
  while (reader.next(snap)) rounds.push_back(std::move(snap));
  if (corrupt_records != nullptr) *corrupt_records = reader.corrupt_records();
  return rounds;
}

void write_trace(const std::string& path,
                 const std::vector<MeasurementSnapshot>& rounds) {
  TraceWriter writer(path);
  for (const MeasurementSnapshot& snap : rounds) writer.write(snap);
  writer.close();
}

// ------------------------------------------------------------------ JSON

std::string trace_to_json(const std::vector<MeasurementSnapshot>& rounds) {
  std::string out = "{\"version\":";
  json_append_int(out, kTraceVersion);
  out += ",\"rounds\":[";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += rounds[i].to_json();
  }
  out += "]}";
  return out;
}

std::vector<MeasurementSnapshot> trace_from_json(std::string_view text) {
  const JsonValue doc = JsonValue::parse(text);
  if (doc.at("version").as_int() != static_cast<int>(kTraceVersion))
    throw std::invalid_argument("trace: unsupported JSON version");
  std::vector<MeasurementSnapshot> rounds;
  // Each round uses the snapshot's own schema decoder: one schema, one
  // parser, no drift between the standalone and the trace JSON paths.
  for (const JsonValue& jr : doc.at("rounds").items())
    rounds.push_back(MeasurementSnapshot::from_value(jr));
  return rounds;
}

}  // namespace meshopt
