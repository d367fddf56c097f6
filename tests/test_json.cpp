// util/json error-path coverage: the parser backs both wire formats'
// text side (snapshot JSON submits, plan responses, metrics dumps), so a
// malformed document must fail with the documented std::invalid_argument
// — never UB, stack overflow, or silent acceptance. Happy paths are
// covered incidentally all over the suite; this file pins the edges:
// truncation, unterminated strings, the recursion depth bound, trailing
// garbage, malformed numbers/literals/escapes, accessor type errors,
// out-of-range link fields in snapshot documents and JSON submit frames,
// and the writer's non-finite-double policy. The JsonNumberIo suite holds the
// number writer and reader to the printf/strtod routines they replaced.

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/snapshot.h"
#include "serve/wire.h"
#include "util/json.h"
#include "util/rng.h"

namespace meshopt {
namespace {

// ------------------------------------------------------------- truncation

TEST(JsonErrors, TruncatedDocumentsThrow) {
  for (const char* text : {"", "   ", "{", "[", "[1,", "[1", "{\"a\"",
                           "{\"a\":", "{\"a\":1", "{\"a\":1,", "tru", "-"}) {
    EXPECT_THROW((void)JsonValue::parse(text), std::invalid_argument)
        << "accepted truncated document: " << text;
  }
}

TEST(JsonErrors, UnterminatedStringsThrow) {
  for (const char* text : {"\"abc", "\"abc\\", "\"abc\\u12", "{\"key",
                           "[\"a\", \"b"}) {
    EXPECT_THROW((void)JsonValue::parse(text), std::invalid_argument)
        << "accepted unterminated string: " << text;
  }
}

// ------------------------------------------------------------ depth bound

/// Depth kMaxDepth (64) parses; beyond it the parser must fail with the
/// exception, not recurse toward a stack overflow.
TEST(JsonErrors, NestingDepthIsBounded) {
  auto nested = [](int depth) {
    std::string text(static_cast<std::size_t>(depth), '[');
    text.append(static_cast<std::size_t>(depth), ']');
    return text;
  };
  EXPECT_NO_THROW((void)JsonValue::parse(nested(64)));
  EXPECT_THROW((void)JsonValue::parse(nested(65)), std::invalid_argument);
  // Far past the bound: still the exception, still no overflow.
  EXPECT_THROW((void)JsonValue::parse(nested(100000)),
               std::invalid_argument);
  // Mixed object/array nesting counts against the same budget.
  std::string mixed;
  for (int i = 0; i < 40; ++i) mixed += "{\"k\":[";
  EXPECT_THROW((void)JsonValue::parse(mixed), std::invalid_argument);
}

// ------------------------------------------------------- trailing garbage

TEST(JsonErrors, TrailingGarbageThrows) {
  for (const char* text : {"1 2", "{} {}", "[1] x", "null,", "\"a\"\"b\"",
                           "true false"}) {
    EXPECT_THROW((void)JsonValue::parse(text), std::invalid_argument)
        << "accepted trailing garbage: " << text;
  }
  // Trailing whitespace is NOT garbage.
  EXPECT_NO_THROW((void)JsonValue::parse(" [1, 2] \n\t"));
}

// ------------------------------------------- malformed tokens and escapes

TEST(JsonErrors, MalformedNumbersAndLiteralsThrow) {
  for (const char* text : {"1.2.3", "1e", "--1", "+1", "nul", "truE",
                           "falsehood", "None", "0x10", "1e+309junk"}) {
    EXPECT_THROW((void)JsonValue::parse(text), std::invalid_argument)
        << "accepted malformed token: " << text;
  }
}

TEST(JsonErrors, BadEscapesThrow) {
  for (const char* text : {"\"\\q\"", "\"\\u12g4\"", "\"\\u12\"",
                           "\"\\ud800\""}) {
    EXPECT_THROW((void)JsonValue::parse(text), std::invalid_argument)
        << "accepted bad escape: " << text;
  }
  // The supported escapes round-trip through the writer.
  std::string out;
  json_append_string(out, "a\"b\\c\nd\te\x01");
  const JsonValue v = JsonValue::parse(out);
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\te\x01");
}

// -------------------------------------------------------------- accessors

TEST(JsonErrors, AccessorTypeMismatchesThrow) {
  const JsonValue doc = JsonValue::parse("{\"n\":1,\"s\":\"x\",\"a\":[]}");
  EXPECT_THROW((void)doc.at("n").as_bool(), std::invalid_argument);
  EXPECT_THROW((void)doc.at("n").as_string(), std::invalid_argument);
  EXPECT_THROW((void)doc.at("s").as_number(), std::invalid_argument);
  EXPECT_THROW((void)doc.at("n").items(), std::invalid_argument);
  EXPECT_THROW((void)doc.at("a").members(), std::invalid_argument);
  EXPECT_THROW((void)doc.at("missing"), std::invalid_argument);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(doc.at("n").find("anything"), nullptr);  // non-object find
  // as_int bounds: truncation in range, exception out of range.
  EXPECT_EQ(JsonValue::parse("2147483647.9").as_int(), 2147483647);
  EXPECT_THROW((void)JsonValue::parse("2147483648").as_int(),
               std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("-2147483649").as_int(),
               std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("1e300").as_int(),
               std::invalid_argument);
}

// ---------------------------------------------------- snapshot link fields

/// One 11 Mb/s link with retry limit 12 (two digits, so "-5" fits in place).
MeasurementSnapshot one_link_snapshot() {
  MeasurementSnapshot snap;
  SnapshotLink l;
  l.src = 0;
  l.dst = 1;
  l.rate = Rate::kR11Mbps;
  l.retry_limit = 12;
  snap.links.push_back(l);
  return snap;
}

/// one_link_snapshot()'s JSON document with `from` replaced by `to`.
std::string snapshot_doc_with(const std::string& from, const std::string& to) {
  std::string doc = one_link_snapshot().to_json();
  const std::size_t at = doc.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return doc.replace(at, from.size(), to);
}

TEST(JsonErrors, SnapshotLinkRateAndRetryLimitAreRangeChecked) {
  // The document is well-formed JSON; the link fields are out of range.
  // A rate that names no Rate must not be cast into one, and a negative
  // retry limit is no MAC setting.
  EXPECT_NO_THROW((void)MeasurementSnapshot::from_json(
      snapshot_doc_with("\"rate\":1", "\"rate\":0")));
  for (const char* rate : {"\"rate\":300", "\"rate\":2", "\"rate\":-1"})
    EXPECT_THROW((void)MeasurementSnapshot::from_json(
                     snapshot_doc_with("\"rate\":1", rate)),
                 std::invalid_argument)
        << rate;
  EXPECT_THROW((void)MeasurementSnapshot::from_json(snapshot_doc_with(
                   "\"retry_limit\":12", "\"retry_limit\":-5")),
               std::invalid_argument);
  EXPECT_NO_THROW((void)MeasurementSnapshot::from_json(snapshot_doc_with(
      "\"retry_limit\":12", "\"retry_limit\":0")));
}

TEST(JsonErrors, JsonSubmitFrameRejectsOutOfRangeLinkFields) {
  SubmitRequest req;
  req.tenant = 3;
  req.round_seq = 1;
  req.format = WireFormat::kJson;
  req.snapshot = one_link_snapshot();
  std::string frame;
  wire_append_submit(frame, req);
  WireFrame out;
  ASSERT_EQ(wire_decode_frame(frame, out), frame.size());
  // Same-length edits keep the frame's length prefix valid.
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"\"rate\":1", "\"rate\":7"},
        {"\"retry_limit\":12", "\"retry_limit\":-5"}}) {
    std::string bad = frame;
    const std::size_t at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, from.size(), to);
    EXPECT_THROW((void)wire_decode_frame(bad, out), std::invalid_argument)
        << to;
  }
}

// ------------------------------------------------------------- non-finite

/// JSON has no inf/nan: the writer's documented policy is to emit null.
/// The round trip therefore yields a null value, which then fails number
/// accessors loudly instead of smuggling a poisoned double through.
TEST(JsonErrors, NonFiniteDoublesWriteAsNull) {
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    std::string out;
    json_append_double(out, v);
    EXPECT_EQ(out, "null");
    EXPECT_TRUE(JsonValue::parse(out).is_null());
    EXPECT_THROW((void)JsonValue::parse(out).as_number(),
                 std::invalid_argument);
  }
  // Finite extremes still round-trip bit-exactly at %.17g.
  for (const double v : {std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::denorm_min(), -0.0,
                         0.1 + 0.2}) {
    std::string out;
    json_append_double(out, v);
    const double back = JsonValue::parse(out).as_number();
    EXPECT_EQ(std::signbit(back), std::signbit(v));
    EXPECT_EQ(back, v);
  }
}

// ---------------------------------------------- number I/O vs printf/strtod

// The writer and the number parser once ran on snprintf and strtod; they
// are kept here verbatim as the reference the charconv versions must
// reproduce byte for byte and bit for bit.

std::string reference_append_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string reference_append_int(long long v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

/// The parser's old decision on a document that is one number token (all
/// characters in [0-9.eE+-]): nullopt when it threw, else the value.
std::optional<double> reference_parse_number(const std::string& tok) {
  if (tok.empty() || tok[0] == '+') return std::nullopt;
  char* end = nullptr;
  const double d = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size()) return std::nullopt;
  return d;
}

std::optional<double> parse_number(const std::string& tok) {
  try {
    return JsonValue::parse(tok).as_number();
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_same_double_text(double v) {
  std::string out;
  json_append_double(out, v);
  ASSERT_EQ(out, reference_append_double(v)) << "bits 0x" << std::hex
                                             << bits_of(v);
}

void expect_same_parse(const std::string& tok) {
  const std::optional<double> want = reference_parse_number(tok);
  const std::optional<double> got = parse_number(tok);
  ASSERT_EQ(got.has_value(), want.has_value()) << "token '" << tok << "'";
  if (want)
    ASSERT_EQ(bits_of(*got), bits_of(*want)) << "token '" << tok << "'";
}

std::vector<double> edge_doubles() {
  std::vector<double> v = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           DBL_MIN,
                           std::nextafter(DBL_MIN, 0.0),
                           DBL_MAX,
                           -DBL_MAX,
                           DBL_EPSILON,
                           0.1 + 0.2,
                           1.0 / 3.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (int e = -330; e <= 310; ++e) {
    const double p = std::pow(10.0, e);
    v.push_back(p);
    v.push_back(std::nextafter(p, 0.0));
    v.push_back(std::nextafter(p, HUGE_VAL));
  }
  for (int k = 0; k <= 53; ++k) {
    const double p = std::ldexp(1.0, k);
    v.push_back(p);
    v.push_back(p - 1.0);
    v.push_back(-(p + 1.0));
  }
  return v;
}

TEST(JsonNumberIo, AppendDoubleMatchesPrintfOnEdgeValues) {
  for (const double v : edge_doubles()) expect_same_double_text(v);
  RngStream rng(41, "json-int53");
  for (int i = 0; i < 100000; ++i)
    expect_same_double_text(
        static_cast<double>(rng.next_u64() >> (11 + rng.next_u64() % 53)));
}

TEST(JsonNumberIo, AppendDoubleMatchesPrintfOnRandomBitPatterns) {
  RngStream rng(43, "json-bits");
  for (int i = 0; i < 1000000; ++i) {
    double v = 0.0;
    const std::uint64_t b = rng.next_u64();
    std::memcpy(&v, &b, sizeof v);
    expect_same_double_text(v);
  }
  // Values shaped like the wire's: probabilities and bit rates.
  for (int i = 0; i < 200000; ++i) {
    expect_same_double_text(rng.uniform());
    expect_same_double_text(rng.uniform(1e5, 5.4e7));
  }
}

TEST(JsonNumberIo, AppendIntAndEscapesMatchPrintf) {
  RngStream rng(47, "json-ints");
  for (const long long v :
       {0LL, -1LL, 1LL, std::numeric_limits<long long>::min(),
        std::numeric_limits<long long>::max()}) {
    std::string out;
    json_append_int(out, v);
    EXPECT_EQ(out, reference_append_int(v));
  }
  for (int i = 0; i < 100000; ++i) {
    const auto v = static_cast<long long>(rng.next_u64() >>
                                          (rng.next_u64() % 64));
    std::string out;
    json_append_int(out, i % 2 == 0 ? v : -v);
    ASSERT_EQ(out, reference_append_int(i % 2 == 0 ? v : -v));
  }
  for (int c = 1; c < 0x20; ++c) {
    if (c == '\b' || c == '\f' || c == '\n' || c == '\r' || c == '\t')
      continue;
    std::string out;
    json_append_string(out, std::string(1, static_cast<char>(c)));
    char want[16];
    std::snprintf(want, sizeof want, "\"\\u%04x\"",
                  static_cast<unsigned>(c));
    EXPECT_EQ(out, want);
  }
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.next_u64() >> (rng.next_u64() % 64);
    std::string out;
    json_append_hex(out, v);
    char want[24];
    std::snprintf(want, sizeof want, "\"0x%016" PRIx64 "\"", v);
    ASSERT_EQ(out, want);
  }
}

TEST(JsonNumberIo, ParseMatchesStrtodOnEdgeTokens) {
  for (const char* tok :
       {"1e999", "-1e999", "1e-400", "-1e-400", "1e-320",
        "4.9406564584124654e-324", "2.4703282292062327e-324",
        "2.4703282292062328e-324", "1.7976931348623157e308",
        "1.7976931348623158e308",
        "1.7976931348623159e308", "2.2250738585072011e-308", "1.", ".5",
        "-.5", "1e", "1e+", "1e-", "e5", ".", "-", "+", "00012", "-0", "0",
        "-0.0", "0e0", "1E5", "1e+05", "1.5e-3", "12345678901234567890123",
        "0.000000000000000000000000000001", "1e0000000000000000000000000001",
        "1e99999999999999999999", "1e-99999999999999999999", "--1", "1-1",
        "1e5e5", "1..2", "+1", "9007199254740993", "-9007199254740993"}) {
    expect_same_parse(tok);
  }
  for (const double v : edge_doubles()) {
    if (std::isfinite(v)) expect_same_parse(reference_append_double(v));
  }
}

TEST(JsonNumberIo, ParseMatchesStrtodOnRandomTokens) {
  static constexpr char kAlphabet[] = "0123456789.eE+-";
  RngStream rng(53, "json-tokens");
  auto digits = [&rng](std::string& s, int lo, int hi) {
    for (int n = rng.uniform_int(lo, hi); n > 0; --n)
      s.push_back(static_cast<char>('0' + rng.uniform_int(0, 9)));
  };
  for (int i = 0; i < 1000000; ++i) {
    std::string tok;
    if (i % 2 == 0) {
      // Any string over the number alphabet: mostly rejected.
      for (int n = rng.uniform_int(1, 12); n > 0; --n)
        tok.push_back(kAlphabet[rng.uniform_int(0, 14)]);
    } else {
      // Grammar-shaped: sign, integer part, fraction, exponent, with
      // lengths and exponents that reach both ends of the double range.
      if (rng.bernoulli(0.3)) tok.push_back('-');
      digits(tok, 0, rng.bernoulli(0.1) ? 30 : 6);
      if (rng.bernoulli(0.6)) {
        tok.push_back('.');
        digits(tok, 0, rng.bernoulli(0.1) ? 30 : 17);
      }
      if (rng.bernoulli(0.5)) {
        tok.push_back(rng.bernoulli(0.5) ? 'e' : 'E');
        const int sign = rng.uniform_int(0, 2);
        if (sign > 0) tok.push_back(sign == 1 ? '+' : '-');
        digits(tok, 0, 3);
      }
    }
    expect_same_parse(tok);
  }
}

}  // namespace
}  // namespace meshopt
