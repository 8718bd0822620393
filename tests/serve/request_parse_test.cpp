// Wire-request parsing: every malformed, unknown, missing, or oversized
// input yields a TYPED reject (RequestError with the right code) — never a
// crash, never a silently defaulted field. This is the daemon's first line
// of defense: everything arriving on the socket goes through parse_request.
#include "serve/wire.h"

#include <gtest/gtest.h>

#include <string>

#include "serve/json_parse.h"

namespace subsel::serve {
namespace {

using Code = RequestError::Code;

Code reject_code(const std::string& line,
                 const ParseLimits& limits = ParseLimits{}) {
  try {
    parse_request(line, limits);
  } catch (const RequestError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a RequestError for: " << line;
  return Code::kMalformedJson;
}

TEST(RequestParse, ValidSelectRequest) {
  const auto request = parse_request(
      R"({"type":"select","id":"r1","dataset":"cifar","k":500,)"
      R"("solver":"distributed-greedy","objective":"pairwise","alpha":0.8,)"
      R"("deadline_ms":250,"priority":"interactive","seed":7})",
      ParseLimits{});
  EXPECT_EQ(request.kind, ServeRequest::Kind::kSelect);
  EXPECT_EQ(request.id, "r1");
  EXPECT_EQ(request.dataset, "cifar");
  EXPECT_EQ(request.k, 500u);
  EXPECT_EQ(request.solver, "distributed-greedy");
  EXPECT_EQ(request.objective, "pairwise");
  EXPECT_DOUBLE_EQ(request.alpha, 0.8);
  EXPECT_EQ(request.deadline_ms, 250u);
  EXPECT_EQ(request.priority, Priority::kInteractive);
  EXPECT_EQ(request.seed, 7u);
}

TEST(RequestParse, ValidStatsRequest) {
  const auto request = parse_request(R"({"type":"stats","id":"s1"})",
                                     ParseLimits{});
  EXPECT_EQ(request.kind, ServeRequest::Kind::kStats);
  EXPECT_EQ(request.id, "s1");
}

TEST(RequestParse, RequestToJsonRoundTrips) {
  ServeRequest original;
  original.id = "round-trip";
  original.dataset = "toy";
  original.k = 42;
  original.priority = Priority::kInteractive;
  original.deadline_ms = 125;
  original.solver = "greedi";
  original.objective = "facility-location";
  original.alpha = 0.5;
  original.seed = 99;
  original.return_selection = false;

  const auto parsed = parse_request(original.to_json(), ParseLimits{});
  EXPECT_EQ(parsed.id, original.id);
  EXPECT_EQ(parsed.dataset, original.dataset);
  EXPECT_EQ(parsed.k, original.k);
  EXPECT_EQ(parsed.priority, original.priority);
  EXPECT_EQ(parsed.deadline_ms, original.deadline_ms);
  EXPECT_EQ(parsed.solver, original.solver);
  EXPECT_EQ(parsed.objective, original.objective);
  EXPECT_DOUBLE_EQ(parsed.alpha, original.alpha);
  EXPECT_EQ(parsed.seed, original.seed);
  EXPECT_FALSE(parsed.return_selection);
}

TEST(RequestParse, MalformedJsonRejects) {
  EXPECT_EQ(reject_code("not json at all"), Code::kMalformedJson);
  EXPECT_EQ(reject_code(""), Code::kMalformedJson);
  EXPECT_EQ(reject_code("{\"type\":"), Code::kMalformedJson);
  EXPECT_EQ(reject_code("{} trailing"), Code::kMalformedJson);
  EXPECT_EQ(reject_code("[1,2,3]"), Code::kMalformedJson);  // not an object
  EXPECT_EQ(reject_code("\"select\""), Code::kMalformedJson);
  // Duplicate keys are ambiguous; the strict parser refuses to pick one.
  EXPECT_EQ(reject_code(R"({"id":"a","id":"b","type":"stats"})"),
            Code::kMalformedJson);
}

TEST(RequestParse, DeeplyNestedJsonRejectsInsteadOfOverflowing) {
  std::string bomb;
  for (int i = 0; i < 2000; ++i) bomb += '[';
  for (int i = 0; i < 2000; ++i) bomb += ']';
  EXPECT_THROW(JsonValue::parse(bomb), JsonParseError);
  EXPECT_EQ(reject_code(bomb), Code::kMalformedJson);
}

TEST(RequestParse, MissingRequiredFieldsReject) {
  // No id at all, and an empty id.
  EXPECT_EQ(reject_code(R"({"type":"stats"})"), Code::kMissingField);
  EXPECT_EQ(reject_code(R"({"type":"stats","id":""})"), Code::kMissingField);
  // No type.
  EXPECT_EQ(reject_code(R"({"id":"r1"})"), Code::kMissingField);
  // Select without a dataset, and without a budget.
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","k":5})"),
            Code::kMissingField);
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy"})"),
            Code::kMissingField);
}

TEST(RequestParse, RejectCarriesTheRequestId) {
  try {
    parse_request(R"({"type":"select","id":"carry-me"})", ParseLimits{});
    FAIL() << "expected a reject";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.id(), "carry-me");
  }
}

TEST(RequestParse, UnknownTypeRejects) {
  EXPECT_EQ(reject_code(R"({"type":"explode","id":"r1"})"),
            Code::kUnknownType);
}

TEST(RequestParse, UnknownSolverAndObjectiveRejectAtParse) {
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":5,"solver":"quantum-annealer"})"),
            Code::kUnknownSolver);
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":5,"objective":"vibes"})"),
            Code::kUnknownObjective);
}

TEST(RequestParse, UnknownFieldRejects) {
  // Strict schema: a typo'd field must not be silently ignored.
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":5,"dedline_ms":100})"),
            Code::kUnknownField);
  EXPECT_EQ(reject_code(R"({"type":"stats","id":"s1","extra":1})"),
            Code::kUnknownField);
}

TEST(RequestParse, BadFieldValuesReject) {
  // Wrong types.
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":7,"k":5})"),
            Code::kBadField);
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":"five"})"),
            Code::kBadField);
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":5,"utility_weighted":"yes"})"),
            Code::kBadField);
  EXPECT_EQ(reject_code(R"({"id":7,"type":"stats"})"), Code::kBadField);
  // Out-of-domain values.
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":-3})"),
            Code::kBadField);
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":2.5})"),
            Code::kBadField);
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("fraction":1.5})"),
            Code::kBadField);
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":5,"priority":"urgent"})"),
            Code::kBadField);
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":5,"bounding":"psychic"})"),
            Code::kBadField);
}

TEST(RequestParse, EpsilonOutsideOpenUnitIntervalRejects) {
  // ε drives the sampled and threshold solvers: 0 hangs threshold greedy,
  // 0 or 1 turn the stochastic sample size into inf, so anything outside
  // (0, 1) is refused at the wire for every solver that reads it.
  for (const std::string solver :
       {"stochastic-greedy", "threshold-greedy", "sieve-streaming"}) {
    const std::string head = R"({"type":"select","id":"e1","dataset":"toy",)"
                             R"("k":5,"solver":")" +
                             solver + R"(","epsilon":)";
    for (const char* bad : {"0", "1", "-0.5", "1e-400"}) {
      EXPECT_EQ(reject_code(head + bad + "}"), Code::kBadField)
          << solver << " epsilon=" << bad;
    }
    // JSON has no NaN literal: the strict parser refuses it outright.
    EXPECT_EQ(reject_code(head + "NaN}"), Code::kMalformedJson) << solver;
    EXPECT_DOUBLE_EQ(parse_request(head + "0.25}", ParseLimits{}).epsilon, 0.25)
        << solver;
  }
}

TEST(RequestParse, ConstraintFieldsParseAndRoundTrip) {
  const auto request = parse_request(
      R"({"type":"select","id":"c1","dataset":"toy","k":20,)"
      R"("cost_budget":12.5,"group_cap":3})",
      ParseLimits{});
  EXPECT_DOUBLE_EQ(request.cost_budget, 12.5);
  EXPECT_EQ(request.group_cap, 3u);
  // Constrained requests default bounding off (the pre-pass is
  // unconstrained and would be rejected downstream) — but only when the
  // field is absent, so an explicit conflicting value still gets its typed
  // downstream reject.
  EXPECT_EQ(request.bounding, "none");

  const auto round_tripped = parse_request(request.to_json(), ParseLimits{});
  EXPECT_DOUBLE_EQ(round_tripped.cost_budget, 12.5);
  EXPECT_EQ(round_tripped.group_cap, 3u);
  EXPECT_EQ(round_tripped.bounding, "none");

  // Explicit bounding survives alongside constraints.
  const auto explicit_bounding = parse_request(
      R"({"type":"select","id":"c2","dataset":"toy","k":20,)"
      R"("cost_budget":1.0,"bounding":"exact"})",
      ParseLimits{});
  EXPECT_EQ(explicit_bounding.bounding, "exact");

  // Unconstrained requests do not serialize the constraint fields.
  ServeRequest plain;
  plain.id = "p1";
  plain.dataset = "toy";
  plain.k = 5;
  const std::string json = plain.to_json();
  EXPECT_EQ(json.find("cost_budget"), std::string::npos);
  EXPECT_EQ(json.find("group_cap"), std::string::npos);
}

TEST(RequestParse, BadConstraintFieldValuesReject) {
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":5,"cost_budget":-1.0})"),
            Code::kBadField);
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":5,"cost_budget":"cheap"})"),
            Code::kBadField);
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":5,"group_cap":-2})"),
            Code::kBadField);
  EXPECT_EQ(reject_code(R"({"type":"select","id":"r1","dataset":"toy",)"
                        R"("k":5,"group_cap":1.5})"),
            Code::kBadField);
}

TEST(RequestParse, OversizedRequestRejectsBeforeParsing) {
  ParseLimits limits;
  limits.max_request_bytes = 128;
  std::string big = R"({"type":"select","id":"r1","dataset":")";
  big += std::string(512, 'x');
  big += R"(","k":5})";
  EXPECT_EQ(reject_code(big, limits), Code::kOversized);
  // Size is checked before JSON validity: garbage past the limit is still
  // an oversize reject, proving the parser never touched it.
  EXPECT_EQ(reject_code(std::string(512, '{'), limits), Code::kOversized);
}

TEST(RequestParse, CodeNamesAreStable) {
  // The wire-visible reject reasons CI and clients match on.
  EXPECT_STREQ(request_error_code_name(Code::kMalformedJson), "malformed_json");
  EXPECT_STREQ(request_error_code_name(Code::kOversized), "oversized_request");
  EXPECT_STREQ(request_error_code_name(Code::kMissingField), "missing_field");
  EXPECT_STREQ(request_error_code_name(Code::kBadField), "bad_field");
  EXPECT_STREQ(request_error_code_name(Code::kUnknownField), "unknown_field");
  EXPECT_STREQ(request_error_code_name(Code::kUnknownType), "unknown_type");
  EXPECT_STREQ(request_error_code_name(Code::kUnknownSolver), "unknown_solver");
  EXPECT_STREQ(request_error_code_name(Code::kUnknownObjective),
               "unknown_objective");
}

TEST(JsonParse, UnicodeEscapesDecode) {
  // \u00e9 (2-byte UTF-8) and the \ud83d\ude00 surrogate pair (U+1F600,
  // 4-byte UTF-8) must decode; a pair must never emit two lone surrogates.
  const auto value = JsonValue::parse(R"("a\u00e9\ud83d\ude00b")");
  EXPECT_EQ(value.as_string(), "a\xc3\xa9\xf0\x9f\x98\x80"
                               "b");
}

TEST(JsonParse, StrictnessCorners) {
  EXPECT_THROW(JsonValue::parse("01"), JsonParseError);     // leading zero
  EXPECT_THROW(JsonValue::parse("1."), JsonParseError);     // bare dot
  EXPECT_THROW(JsonValue::parse("+1"), JsonParseError);     // leading plus
  EXPECT_THROW(JsonValue::parse("[1,]"), JsonParseError);   // trailing comma
  EXPECT_THROW(JsonValue::parse("{'a':1}"), JsonParseError);  // single quotes
  EXPECT_THROW(JsonValue::parse("\"\x01\""), JsonParseError);  // raw control
  EXPECT_THROW(JsonValue::parse(R"("\ud800")"), JsonParseError);  // lone surrogate
  EXPECT_NO_THROW(JsonValue::parse("  {\"a\": [1, 2.5e3, true, null]} "));
}

}  // namespace
}  // namespace subsel::serve
