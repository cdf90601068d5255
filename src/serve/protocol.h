#ifndef WYM_SERVE_PROTOCOL_H_
#define WYM_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/record.h"
#include "util/status.h"

/// \file
/// The wym-serve wire protocol: JSON lines (one request object per
/// line, one response object per line) over a local stream socket.
/// Text-framed on purpose: a human can drive the service with a shell
/// one-liner, and a torn line is trivially detectable (no newline).
///
/// Request shape (fields beyond `op` are op-specific):
///
///   {"op":"predict","id":"r1","model":"default","explain":false,
///    "deadline_ms":250,
///    "pairs":[{"left":["iphone 4s","black"],"right":["iphone 4s","blk"]}]}
///   {"op":"ping"} | {"op":"stats"} | {"op":"list_models"}
///   {"op":"load_model","name":"v2","path":"/models/v2.wym"}
///   {"op":"retire_model","name":"v1"}
///   {"op":"shutdown"}
///
/// Response shape:
///
///   {"proto":"wym-serve/v1","id":"r1","op":"predict","ok":true,...}
///   {"proto":"wym-serve/v1","id":"r1","ok":false,
///    "error":{"code":"ResourceExhausted","message":"queue full ..."}}
///
/// Every response is typed: `ok` plus either op-specific payload or an
/// `error` object whose `code` is the Status::Code name — the serving
/// layer's part of the "never silently dropped" contract.

namespace wym::serve {

/// Protocol tag stamped into every response.
inline constexpr const char* kProtocolName = "wym-serve/v1";

/// A parsed request.
struct Request {
  enum class Op {
    kPing,
    kPredict,
    kStats,
    kListModels,
    kLoadModel,
    kRetireModel,
    kShutdown,
    /// Test-only (ServiceOptions::enable_debug_ops): occupies a worker
    /// for `sleep_ms`, the fixture for watchdog/wedge coverage.
    kDebugSleep,
  };

  Op op = Op::kPing;
  /// Client-chosen correlation id, echoed verbatim into the response.
  std::string id;
  /// Model name (predict); empty means "default".
  std::string model;
  /// Record pairs to score (predict). Labels are unused.
  std::vector<data::EmRecord> pairs;
  /// Attach the full explanation (decision units + impacts) to every
  /// scored pair.
  bool explain = false;
  /// Per-request deadline budget in ms; 0 = the server default.
  uint64_t deadline_ms = 0;
  /// Registry ops.
  std::string name;
  std::string path;
  /// kDebugSleep only.
  uint64_t sleep_ms = 0;
};

/// Wire name of an op ("predict", "load_model", ...).
const char* OpName(Request::Op op);

/// Parses one JSON request line. Malformed JSON, an unknown `op`, or a
/// missing required field yields InvalidArgument naming the problem.
Result<Request> ParseRequest(const std::string& line);

/// Serializes a request back to its wire line (the client side; also
/// makes parse/render round-trips testable).
std::string RenderRequest(const Request& request);

/// Scored result for one pair of a predict request.
struct PairResult {
  int prediction = 0;
  double probability = 0.0;
  /// Served from the prediction cache (diagnostics only).
  bool cached = false;
  /// Pre-rendered explanation object (explain::ExplanationToJson);
  /// empty when the request did not ask for explanations.
  std::string explanation_json;
};

/// One response. `status` carries the error taxonomy; the rest is the
/// op-specific payload.
struct Response {
  std::string id;
  /// Server-minted admission id ("q<seq>", wire key "req"): unique per
  /// admission, so two retries of the same client `id` are
  /// distinguishable in the request journal. Empty for responses not
  /// produced by MatcherService (e.g. transport-level parse errors).
  std::string request_id;
  std::string op;
  Status status;
  std::string model;
  std::vector<PairResult> results;
  /// Pre-rendered JSON payload object (stats snapshot, model list);
  /// empty when the op has none.
  std::string payload_json;
};

/// Serializes a response to its wire line (without the trailing
/// newline). This is the response-serialization sink of the
/// determinism-taint contract: its output must be a pure function of
/// the Response value, so no clock, randomness, or hash-order source
/// may reach it (enforced by `wym_lint taint`).
std::string RenderResponse(const Response& response);

/// Parses a response line back into a Response (the client side).
/// `error.code` strings map back onto Status codes; an unknown code
/// parses as IoError so a confused client still fails closed.
Result<Response> ParseResponse(const std::string& line);

}  // namespace wym::serve

#endif  // WYM_SERVE_PROTOCOL_H_
