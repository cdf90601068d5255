#include "serve/protocol.h"

#include "obs/json.h"

namespace wym::serve {

namespace {

/// Status::Code <-> wire name. Mirrors CodeName in util/status.cc; an
/// unknown wire name maps to kIoError (fail closed, still typed).
struct CodeNameEntry {
  Status::Code code;
  const char* name;
};

constexpr CodeNameEntry kCodeNames[] = {
    {Status::Code::kInvalidArgument, "InvalidArgument"},
    {Status::Code::kNotFound, "NotFound"},
    {Status::Code::kIoError, "IoError"},
    {Status::Code::kCorruption, "Corruption"},
    {Status::Code::kFailedPrecondition, "FailedPrecondition"},
    {Status::Code::kResourceExhausted, "ResourceExhausted"},
    {Status::Code::kDeadlineExceeded, "DeadlineExceeded"},
};

Status StatusFromWire(const std::string& code, std::string message) {
  for (const CodeNameEntry& entry : kCodeNames) {
    if (code == entry.name) {
      switch (entry.code) {
        case Status::Code::kInvalidArgument:
          return Status::InvalidArgument(std::move(message));
        case Status::Code::kNotFound:
          return Status::NotFound(std::move(message));
        case Status::Code::kCorruption:
          return Status::Corruption(std::move(message));
        case Status::Code::kFailedPrecondition:
          return Status::FailedPrecondition(std::move(message));
        case Status::Code::kResourceExhausted:
          return Status::ResourceExhausted(std::move(message));
        case Status::Code::kDeadlineExceeded:
          return Status::DeadlineExceeded(std::move(message));
        default:
          return Status::IoError(std::move(message));
      }
    }
  }
  return Status::IoError("unknown error code '" + code + "': " + message);
}

/// The Status::Code wire name used in RenderResponse. Pure — part of
/// the response-serialization path.
const char* WireCodeName(Status::Code code) {
  for (const CodeNameEntry& entry : kCodeNames) {
    if (entry.code == code) return entry.name;
  }
  return "IoError";
}

struct OpNameEntry {
  Request::Op op;
  const char* name;
};

constexpr OpNameEntry kOpNames[] = {
    {Request::Op::kPing, "ping"},
    {Request::Op::kPredict, "predict"},
    {Request::Op::kStats, "stats"},
    {Request::Op::kListModels, "list_models"},
    {Request::Op::kLoadModel, "load_model"},
    {Request::Op::kRetireModel, "retire_model"},
    {Request::Op::kShutdown, "shutdown"},
    {Request::Op::kDebugSleep, "debug_sleep"},
};

/// Member lookup helpers over the obs JSON tree; each tolerates an
/// absent member and type-checks a present one.
Status GetString(const obs::JsonValue& object, const std::string& key,
                 std::string* out) {
  const obs::JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::Ok();
  if (!value->IsString()) {
    return Status::InvalidArgument("'" + key + "' must be a string");
  }
  *out = value->string;
  return Status::Ok();
}

Status GetUint(const obs::JsonValue& object, const std::string& key,
               uint64_t* out) {
  const obs::JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::Ok();
  if (!value->IsNumber() || value->number < 0) {
    return Status::InvalidArgument("'" + key +
                                   "' must be a non-negative number");
  }
  *out = static_cast<uint64_t>(value->number);
  return Status::Ok();
}

Status GetBool(const obs::JsonValue& object, const std::string& key,
               bool* out) {
  const obs::JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::Ok();
  if (!value->IsBool()) {
    return Status::InvalidArgument("'" + key + "' must be a boolean");
  }
  *out = value->boolean;
  return Status::Ok();
}

/// Parses one {"left":[...],"right":[...]} pair object.
Status ParsePair(const obs::JsonValue& object, data::EmRecord* out) {
  for (const char* side : {"left", "right"}) {
    const obs::JsonValue* values = object.Find(side);
    if (values == nullptr || !values->IsArray()) {
      return Status::InvalidArgument(
          std::string("pair needs a '") + side + "' array of values");
    }
    std::vector<std::string>& target =
        side[0] == 'l' ? out->left.values : out->right.values;
    for (const obs::JsonValue& value : values->array) {
      if (!value.IsString()) {
        return Status::InvalidArgument(
            std::string("'") + side + "' values must be strings");
      }
      target.push_back(value.string);
    }
  }
  return Status::Ok();
}

/// The exact source bytes of a parsed value (client side: the server's
/// `explanation` and `payload` objects reach the caller verbatim).
std::string Source(const std::string& text, const obs::JsonValue& value) {
  return text.substr(value.begin, value.end - value.begin);
}

/// Appends `key` and the quoted `value`; an empty value (the protocol's
/// "absent") appends nothing.
void AppendOptionalString(const char* key, const std::string& value,
                          std::string* out) {
  if (value.empty()) return;
  *out += key;
  obs::AppendJsonString(value, out);
}

void AppendPairJson(const data::EmRecord& pair, std::string* out) {
  const auto append_values = [out](const std::vector<std::string>& values) {
    *out += '[';
    for (size_t i = 0; i < values.size(); ++i) {
      if (i != 0) *out += ',';
      obs::AppendJsonString(values[i], out);
    }
    *out += ']';
  };
  *out += "{\"left\":";
  append_values(pair.left.values);
  *out += ",\"right\":";
  append_values(pair.right.values);
  *out += '}';
}

}  // namespace

const char* OpName(Request::Op op) {
  for (const OpNameEntry& entry : kOpNames) {
    if (entry.op == op) return entry.name;
  }
  return "unknown";
}

Result<Request> ParseRequest(const std::string& line) {
  obs::JsonValue root;
  std::string error;
  if (!obs::ParseJson(line, &root, &error)) {
    return Status::InvalidArgument("malformed request JSON: " + error);
  }
  if (!root.IsObject()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  Request request;
  std::string op;
  WYM_RETURN_IF_ERROR(GetString(root, "op", &op));
  if (op.empty()) {
    return Status::InvalidArgument("request needs an 'op' string");
  }
  bool known = false;
  for (const OpNameEntry& entry : kOpNames) {
    if (op == entry.name) {
      request.op = entry.op;
      known = true;
      break;
    }
  }
  if (!known) return Status::InvalidArgument("unknown op '" + op + "'");

  WYM_RETURN_IF_ERROR(GetString(root, "id", &request.id));
  WYM_RETURN_IF_ERROR(GetString(root, "model", &request.model));
  WYM_RETURN_IF_ERROR(GetString(root, "name", &request.name));
  WYM_RETURN_IF_ERROR(GetString(root, "path", &request.path));
  WYM_RETURN_IF_ERROR(GetBool(root, "explain", &request.explain));
  WYM_RETURN_IF_ERROR(GetUint(root, "deadline_ms", &request.deadline_ms));
  WYM_RETURN_IF_ERROR(GetUint(root, "sleep_ms", &request.sleep_ms));

  const obs::JsonValue* pairs = root.Find("pairs");
  if (pairs != nullptr) {
    if (!pairs->IsArray()) {
      return Status::InvalidArgument("'pairs' must be an array");
    }
    for (const obs::JsonValue& entry : pairs->array) {
      data::EmRecord pair;
      WYM_RETURN_IF_ERROR(ParsePair(entry, &pair));
      request.pairs.push_back(std::move(pair));
    }
  } else if (root.Find("left") != nullptr || root.Find("right") != nullptr) {
    // Single-pair convenience: top-level left/right arrays.
    data::EmRecord pair;
    WYM_RETURN_IF_ERROR(ParsePair(root, &pair));
    request.pairs.push_back(std::move(pair));
  }

  if (request.op == Request::Op::kPredict && request.pairs.empty()) {
    return Status::InvalidArgument(
        "predict needs 'pairs' (or top-level 'left'/'right')");
  }
  if (request.op == Request::Op::kLoadModel &&
      (request.name.empty() || request.path.empty())) {
    return Status::InvalidArgument("load_model needs 'name' and 'path'");
  }
  if (request.op == Request::Op::kRetireModel && request.name.empty()) {
    return Status::InvalidArgument("retire_model needs 'name'");
  }
  return request;
}

std::string RenderRequest(const Request& request) {
  std::string out = "{\"op\":";
  obs::AppendJsonString(OpName(request.op), &out);
  AppendOptionalString(",\"id\":", request.id, &out);
  AppendOptionalString(",\"model\":", request.model, &out);
  if (request.explain) out += ",\"explain\":true";
  if (request.deadline_ms != 0) {
    out += ",\"deadline_ms\":" + std::to_string(request.deadline_ms);
  }
  AppendOptionalString(",\"name\":", request.name, &out);
  AppendOptionalString(",\"path\":", request.path, &out);
  if (request.sleep_ms != 0) {
    out += ",\"sleep_ms\":" + std::to_string(request.sleep_ms);
  }
  if (!request.pairs.empty()) {
    out += ",\"pairs\":[";
    for (size_t i = 0; i < request.pairs.size(); ++i) {
      if (i != 0) out += ',';
      AppendPairJson(request.pairs[i], &out);
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string RenderResponse(const Response& response) {
  std::string out = "{\"proto\":";
  obs::AppendJsonString(kProtocolName, &out);
  AppendOptionalString(",\"id\":", response.id, &out);
  AppendOptionalString(",\"req\":", response.request_id, &out);
  AppendOptionalString(",\"op\":", response.op, &out);
  if (!response.status.ok()) {
    out += ",\"ok\":false,\"error\":{\"code\":";
    obs::AppendJsonString(WireCodeName(response.status.code()), &out);
    out += ",\"message\":";
    obs::AppendJsonString(response.status.message(), &out);
    out += "}}";
    return out;
  }
  out += ",\"ok\":true";
  AppendOptionalString(",\"model\":", response.model, &out);
  if (!response.results.empty()) {
    out += ",\"results\":[";
    for (size_t i = 0; i < response.results.size(); ++i) {
      const PairResult& result = response.results[i];
      if (i != 0) out += ',';
      out += "{\"prediction\":" + std::to_string(result.prediction);
      out += ",\"probability\":";
      obs::AppendJsonNumber(result.probability, &out);
      out += result.cached ? ",\"cached\":true" : ",\"cached\":false";
      if (!result.explanation_json.empty()) {
        out += ",\"explanation\":";
        out += result.explanation_json;
      }
      out += '}';
    }
    out += ']';
  }
  if (!response.payload_json.empty()) {
    out += ",\"payload\":";
    out += response.payload_json;
  }
  out += '}';
  return out;
}

Result<Response> ParseResponse(const std::string& line) {
  obs::JsonValue root;
  std::string error;
  if (!obs::ParseJson(line, &root, &error)) {
    return Status::IoError("malformed response JSON: " + error);
  }
  if (!root.IsObject()) {
    return Status::IoError("response must be a JSON object");
  }
  Response response;
  WYM_RETURN_IF_ERROR(GetString(root, "id", &response.id));
  WYM_RETURN_IF_ERROR(GetString(root, "req", &response.request_id));
  WYM_RETURN_IF_ERROR(GetString(root, "op", &response.op));
  WYM_RETURN_IF_ERROR(GetString(root, "model", &response.model));
  const obs::JsonValue* ok = root.Find("ok");
  if (ok == nullptr || !ok->IsBool()) {
    return Status::IoError("response needs an 'ok' boolean");
  }
  if (!ok->boolean) {
    const obs::JsonValue* err = root.Find("error");
    std::string code, message;
    if (err != nullptr && err->IsObject()) {
      (void)GetString(*err, "code", &code);
      (void)GetString(*err, "message", &message);
    }
    response.status = StatusFromWire(code, std::move(message));
    return response;
  }
  const obs::JsonValue* results = root.Find("results");
  if (results != nullptr && results->IsArray()) {
    for (const obs::JsonValue& entry : results->array) {
      PairResult result;
      const obs::JsonValue* prediction = entry.Find("prediction");
      const obs::JsonValue* probability = entry.Find("probability");
      if (prediction != nullptr && prediction->IsNumber()) {
        result.prediction = static_cast<int>(prediction->number);
      }
      if (probability != nullptr && probability->IsNumber()) {
        result.probability = probability->number;
      }
      (void)GetBool(entry, "cached", &result.cached);
      const obs::JsonValue* explanation = entry.Find("explanation");
      if (explanation != nullptr) {
        result.explanation_json = Source(line, *explanation);
      }
      response.results.push_back(result);
    }
  }
  const obs::JsonValue* payload = root.Find("payload");
  if (payload != nullptr) response.payload_json = Source(line, *payload);
  return response;
}

}  // namespace wym::serve
