#pragma once
// Wire framing for the plan-serving subsystem (see ARCHITECTURE.md,
// "Serving plane").
//
// The serving layer speaks the two snapshot encodings the repo already
// has — the MeasurementSnapshot JSON schema (util/json.h) and the
// MOTRACE1 binary record payload (util/trace_codec.h) — and this header
// adds the length-prefixed request/response framing that turns either
// into a byte-stream protocol:
//
//   frame  := header payload
//   header := magic "MWP1" (4 bytes) | u8 kind | u8 format | u16 zero
//             | u32 tenant | u64 round_seq | u32 payload_bytes
//
// (all integers little-endian, 24-byte header). kSubmit carries a
// snapshot payload in the declared format; kPlan carries a RatePlan JSON
// document (rate_plan_to_json; util/json writes doubles with 17
// significant digits through std::to_chars, byte-equal to printf's
// "%.17g", and reads them back through std::from_chars, so plans
// round-trip bit-exactly like snapshots do); kReject carries the shed
// reason as a plain string. The framing is transport-agnostic value
// machinery — encode into any byte sink, decode from any byte stream;
// there are no sockets here. wire_decode_frame() is incremental: a short buffer
// returns 0 consumed (wait for more bytes), a malformed one throws, so a
// reader can pump a partial stream without guessing frame boundaries.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/rate_plan.h"
#include "core/snapshot.h"

namespace meshopt {

/// Frame kinds of the serving protocol.
enum class WireKind : std::uint8_t {
  kSubmit = 1,  ///< client -> service: one snapshot for one tenant round
  kPlan = 2,    ///< service -> client: the round's RatePlan (JSON payload)
  kReject = 3,  ///< service -> client: shed/rejected, payload = reason
};

/// Snapshot payload encodings accepted in a kSubmit frame.
enum class WireFormat : std::uint8_t {
  kBinary = 0,  ///< MOTRACE1 record payload (trace_append_snapshot_payload)
  kJson = 1,    ///< MeasurementSnapshot::to_json document
};

/// Frames larger than this are rejected at decode (a hostile length
/// prefix must not drive a multi-GiB allocation; real snapshot payloads
/// are kilobytes).
inline constexpr std::uint32_t kWireMaxPayloadBytes = 64u << 20;

/// Bytes of the fixed frame header.
inline constexpr std::size_t kWireHeaderBytes = 24;

/// One decoded kSubmit frame.
struct SubmitRequest {
  std::uint32_t tenant = 0;
  /// Client-declared round sequence; the service sheds non-increasing
  /// sequences per tenant (kShedStaleRound).
  std::uint64_t round_seq = 0;
  WireFormat format = WireFormat::kBinary;
  MeasurementSnapshot snapshot;
};

/// One decoded frame of any kind (the union of the three shapes; only
/// the fields of `kind` are meaningful).
struct WireFrame {
  WireKind kind = WireKind::kSubmit;
  std::uint32_t tenant = 0;
  std::uint64_t round_seq = 0;
  WireFormat format = WireFormat::kBinary;  ///< kSubmit only
  MeasurementSnapshot snapshot;             ///< kSubmit only
  RatePlan plan;                            ///< kPlan only
  std::string reject_reason;                ///< kReject only
};

/// Append one kSubmit frame carrying `req.snapshot` in `req.format`.
void wire_append_submit(std::string& out, const SubmitRequest& req);

/// Append one kPlan response frame (payload = rate_plan_to_json(plan)).
void wire_append_plan(std::string& out, std::uint32_t tenant,
                      std::uint64_t round_seq, const RatePlan& plan);

/// Append one kReject response frame (payload = `reason`).
void wire_append_reject(std::string& out, std::uint32_t tenant,
                        std::uint64_t round_seq, std::string_view reason);

/// Try to decode one frame from the front of `buf`.
///
/// @return bytes consumed (header + payload), or 0 when `buf` holds only
///         a prefix of a frame (incomplete — append more bytes and retry;
///         `out` is untouched).
/// @throws std::invalid_argument on a malformed frame: bad magic, unknown
///         kind/format, nonzero reserved bits, a payload length above
///         kWireMaxPayloadBytes, or a payload that fails its format's
///         snapshot/plan decoder.
[[nodiscard]] std::size_t wire_decode_frame(std::string_view buf,
                                            WireFrame& out);

/// Serialize a RatePlan as a self-contained JSON document. Doubles keep
/// 17 significant digits, so rate_plan_from_json(rate_plan_to_json(p))
/// compares equal bit-for-bit (RatePlan::operator==).
[[nodiscard]] std::string rate_plan_to_json(const RatePlan& plan);

/// Parse a document produced by rate_plan_to_json().
/// @throws std::invalid_argument on malformed input.
[[nodiscard]] RatePlan rate_plan_from_json(std::string_view text);

}  // namespace meshopt
