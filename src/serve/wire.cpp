#include "serve/wire.h"

#include <cstring>
#include <stdexcept>

#include "util/json.h"
#include "util/trace_codec.h"

namespace meshopt {

namespace {

constexpr char kWireMagic[4] = {'M', 'W', 'P', '1'};

// Little-endian appenders, mirroring the trace codec's explicit byte
// shifts so the framing is host-independent.
void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         static_cast<std::uint32_t>(b[1]) << 8 |
         static_cast<std::uint32_t>(b[2]) << 16 |
         static_cast<std::uint32_t>(b[3]) << 24;
}

std::uint64_t get_u64(const char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

[[noreturn]] void fail(const char* what) {
  throw std::invalid_argument(std::string("wire: ") + what);
}

/// Append the 24-byte header; the payload length is patched by the
/// caller once the payload has been appended after it.
std::size_t append_header(std::string& out, WireKind kind, WireFormat format,
                          std::uint32_t tenant, std::uint64_t round_seq) {
  out.append(kWireMagic, sizeof(kWireMagic));
  out.push_back(static_cast<char>(kind));
  out.push_back(static_cast<char>(format));
  put_u16(out, 0);  // reserved, must be zero
  put_u32(out, tenant);
  put_u64(out, round_seq);
  const std::size_t len_at = out.size();
  put_u32(out, 0);  // payload_bytes, patched below
  return len_at;
}

void patch_length(std::string& out, std::size_t len_at) {
  const std::size_t payload = out.size() - len_at - 4;
  if (payload > kWireMaxPayloadBytes) {
    out.resize(len_at - (kWireHeaderBytes - 4));  // drop the whole frame
    fail("payload exceeds the frame size limit");
  }
  out[len_at] = static_cast<char>(payload & 0xff);
  out[len_at + 1] = static_cast<char>((payload >> 8) & 0xff);
  out[len_at + 2] = static_cast<char>((payload >> 16) & 0xff);
  out[len_at + 3] = static_cast<char>((payload >> 24) & 0xff);
}

void append_double_member(std::string& out, const char* key, double v,
                          bool trailing_comma = true) {
  json_append_string(out, key);
  out.push_back(':');
  json_append_double(out, v);
  if (trailing_comma) out.push_back(',');
}

void append_int_member(std::string& out, const char* key, long long v,
                       bool trailing_comma = true) {
  json_append_string(out, key);
  out.push_back(':');
  json_append_int(out, v);
  if (trailing_comma) out.push_back(',');
}

void append_rate_array(std::string& out, const char* key,
                       const std::vector<double>& v) {
  json_append_string(out, key);
  out += ":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out.push_back(',');
    json_append_double(out, v[i]);
  }
  out += "],";
}

std::vector<double> parse_rate_array(const JsonValue& doc, const char* key) {
  std::vector<double> out;
  for (const JsonValue& v : doc.at(key).items()) out.push_back(v.as_number());
  return out;
}

/// rate_plan_to_json's document, appended to `out` (a response frame
/// writes it straight after its header).
void append_rate_plan_json(std::string& out, const RatePlan& plan) {
  out.push_back('{');
  json_append_string(out, "ok");
  out += plan.ok ? ":true," : ":false,";
  json_append_string(out, "tier");
  out += plan.tier == PlanTier::kFast ? ":\"fast\"," : ":\"exact\",";
  append_double_member(out, "objective_value", plan.objective_value);
  append_int_member(out, "extreme_points", plan.extreme_points);
  append_int_member(out, "optimizer_iterations", plan.optimizer_iterations);
  append_int_member(out, "columns_generated", plan.columns_generated);
  append_int_member(out, "pricing_rounds", plan.pricing_rounds);
  append_rate_array(out, "y", plan.y);
  append_rate_array(out, "x", plan.x);
  json_append_string(out, "shapers");
  out += ":[";
  for (std::size_t i = 0; i < plan.shapers.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('{');
    append_int_member(out, "flow_id", plan.shapers[i].flow_id);
    append_double_member(out, "x_bps", plan.shapers[i].x_bps,
                         /*trailing_comma=*/false);
    out.push_back('}');
  }
  out += "]}";
}

}  // namespace

std::string rate_plan_to_json(const RatePlan& plan) {
  std::string out;
  append_rate_plan_json(out, plan);
  return out;
}

RatePlan rate_plan_from_json(std::string_view text) {
  const JsonValue doc = JsonValue::parse(text);
  RatePlan plan;
  plan.ok = doc.at("ok").as_bool();
  const std::string& tier = doc.at("tier").as_string();
  if (tier == "exact")
    plan.tier = PlanTier::kExact;
  else if (tier == "fast")
    plan.tier = PlanTier::kFast;
  else
    throw std::invalid_argument("rate plan: unknown tier");
  plan.objective_value = doc.at("objective_value").as_number();
  plan.extreme_points = doc.at("extreme_points").as_int();
  plan.optimizer_iterations = doc.at("optimizer_iterations").as_int();
  plan.columns_generated = doc.at("columns_generated").as_int();
  plan.pricing_rounds = doc.at("pricing_rounds").as_int();
  plan.y = parse_rate_array(doc, "y");
  plan.x = parse_rate_array(doc, "x");
  for (const JsonValue& s : doc.at("shapers").items()) {
    ShaperProgram prog;
    prog.flow_id = s.at("flow_id").as_int();
    prog.x_bps = s.at("x_bps").as_number();
    plan.shapers.push_back(prog);
  }
  return plan;
}

void wire_append_submit(std::string& out, const SubmitRequest& req) {
  const std::size_t len_at = append_header(out, WireKind::kSubmit, req.format,
                                           req.tenant, req.round_seq);
  if (req.format == WireFormat::kBinary)
    trace_append_snapshot_payload(out, req.snapshot);
  else
    out += req.snapshot.to_json();
  patch_length(out, len_at);
}

void wire_append_plan(std::string& out, std::uint32_t tenant,
                      std::uint64_t round_seq, const RatePlan& plan) {
  const std::size_t len_at = append_header(out, WireKind::kPlan,
                                           WireFormat::kJson, tenant,
                                           round_seq);
  append_rate_plan_json(out, plan);
  patch_length(out, len_at);
}

void wire_append_reject(std::string& out, std::uint32_t tenant,
                        std::uint64_t round_seq, std::string_view reason) {
  const std::size_t len_at = append_header(out, WireKind::kReject,
                                           WireFormat::kJson, tenant,
                                           round_seq);
  out += reason;
  patch_length(out, len_at);
}

std::size_t wire_decode_frame(std::string_view buf, WireFrame& out) {
  if (buf.size() < kWireHeaderBytes) return 0;
  if (std::memcmp(buf.data(), kWireMagic, sizeof(kWireMagic)) != 0)
    fail("bad magic (not a meshopt wire frame)");
  const auto kind = static_cast<std::uint8_t>(buf[4]);
  const auto format = static_cast<std::uint8_t>(buf[5]);
  if (kind < 1 || kind > 3) fail("unknown frame kind");
  if (format > 1) fail("unknown snapshot format");
  if (buf[6] != 0 || buf[7] != 0) fail("nonzero reserved header bits");
  const std::uint32_t tenant = get_u32(buf.data() + 8);
  const std::uint64_t round_seq = get_u64(buf.data() + 12);
  const std::uint32_t payload_bytes = get_u32(buf.data() + 20);
  // Validate the declared length BEFORE comparing against the buffer: a
  // hostile 0xffffffff prefix must fail here, not demand a 4 GiB read.
  if (payload_bytes > kWireMaxPayloadBytes)
    fail("payload exceeds the frame size limit");
  if (buf.size() < kWireHeaderBytes + payload_bytes) return 0;
  const std::string_view payload = buf.substr(kWireHeaderBytes, payload_bytes);

  WireFrame frame;
  frame.kind = static_cast<WireKind>(kind);
  frame.format = static_cast<WireFormat>(format);
  frame.tenant = tenant;
  frame.round_seq = round_seq;
  switch (frame.kind) {
    case WireKind::kSubmit:
      frame.snapshot = frame.format == WireFormat::kBinary
                           ? decode_snapshot_payload(payload)
                           : MeasurementSnapshot::from_json(payload);
      break;
    case WireKind::kPlan:
      frame.plan = rate_plan_from_json(payload);
      break;
    case WireKind::kReject:
      frame.reject_reason.assign(payload);
      break;
  }
  out = std::move(frame);
  return kWireHeaderBytes + payload_bytes;
}

}  // namespace meshopt
