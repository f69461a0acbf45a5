#include "server/protocol.hpp"

#include <cctype>
#include <cstdint>

#include "common/string_util.hpp"

namespace treedl::server {

namespace {

// Consumes and returns the next whitespace-delimited token of `*rest`
// (empty when exhausted).
std::string_view TakeToken(std::string_view* rest) {
  size_t start = 0;
  while (start < rest->size() &&
         std::isspace(static_cast<unsigned char>((*rest)[start]))) {
    ++start;
  }
  size_t end = start;
  while (end < rest->size() &&
         !std::isspace(static_cast<unsigned char>((*rest)[end]))) {
    ++end;
  }
  std::string_view token = rest->substr(start, end - start);
  rest->remove_prefix(end);
  return token;
}

StatusOr<std::string> TakeTenant(std::string_view* rest,
                                 std::string_view command) {
  std::string_view token = TakeToken(rest);
  if (token.empty()) {
    return Status::ParseError(std::string(command) + ": missing tenant name");
  }
  if (!IsIdentifier(token)) {
    return Status::ParseError(std::string(command) + ": tenant '" +
                              std::string(token) + "' is not an identifier");
  }
  return std::string(token);
}

// The rest-of-line payload of ASSERT/QUERY/MSO and the FACTS clause.
StatusOr<std::string> TakePayload(std::string_view* rest,
                                  std::string_view command,
                                  std::string_view what) {
  std::string_view payload = Trim(*rest);
  *rest = {};
  if (payload.empty()) {
    return Status::ParseError(std::string(command) + ": missing " +
                              std::string(what));
  }
  return std::string(payload);
}

// A decimal work-unit count (DEADLINE, REOPT): every value up to UINT64_MAX
// parses, anything larger overflows.
StatusOr<uint64_t> ParseUnits(std::string_view token, std::string_view command,
                              std::string_view expected) {
  uint64_t units = 0;
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::ParseError(std::string(command) + ": '" +
                                std::string(token) + "' is not " +
                                std::string(expected));
    }
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (units > (UINT64_MAX - digit) / 10) {
      return Status::ParseError(std::string(command) +
                                ": unit count overflows");
    }
    units = units * 10 + digit;
  }
  return units;
}

Status ExpectEnd(std::string_view* rest, std::string_view command) {
  if (!Trim(*rest).empty()) {
    return Status::ParseError(std::string(command) +
                              ": unexpected trailing arguments '" +
                              std::string(Trim(*rest)) + "'");
  }
  return Status::OK();
}

StatusOr<Request> ParseLoad(std::string_view rest) {
  TREEDL_ASSIGN_OR_RETURN(std::string tenant, TakeTenant(&rest, "LOAD"));
  std::string_view keyword = TakeToken(&rest);
  if (keyword != "SIG") {
    return Status::ParseError("LOAD: expected SIG, got '" +
                              std::string(keyword) + "'");
  }
  LoadRequest load;
  load.tenant = std::move(tenant);
  while (true) {
    std::string_view token = TakeToken(&rest);
    if (token.empty() || token == "FACTS") {
      if (token == "FACTS") {
        TREEDL_ASSIGN_OR_RETURN(load.facts,
                                TakePayload(&rest, "LOAD", "FACTS payload"));
      }
      break;
    }
    size_t slash = token.rfind('/');
    if (slash == std::string_view::npos || slash == 0 ||
        slash + 1 == token.size()) {
      return Status::ParseError("LOAD: predicate '" + std::string(token) +
                                "' is not name/arity");
    }
    std::string_view name = token.substr(0, slash);
    std::string_view arity_text = token.substr(slash + 1);
    if (!IsIdentifier(name)) {
      return Status::ParseError("LOAD: predicate name '" + std::string(name) +
                                "' is not an identifier");
    }
    int arity = 0;
    for (char c : arity_text) {
      if (!std::isdigit(static_cast<unsigned char>(c)) || arity > 99) {
        return Status::ParseError("LOAD: bad arity in '" + std::string(token) +
                                  "'");
      }
      arity = arity * 10 + (c - '0');
    }
    load.predicates.emplace_back(std::string(name), arity);
  }
  if (load.predicates.empty()) {
    return Status::ParseError("LOAD: SIG needs at least one name/arity");
  }
  return Request(std::move(load));
}

StatusOr<Request> ParseSolve(std::string_view rest) {
  TREEDL_ASSIGN_OR_RETURN(std::string tenant, TakeTenant(&rest, "SOLVE"));
  std::string_view token = TakeToken(&rest);
  if (token.empty()) return Status::ParseError("SOLVE: missing problem name");
  TREEDL_ASSIGN_OR_RETURN(Engine::Problem problem, ProblemFromName(token));
  TREEDL_RETURN_IF_ERROR(ExpectEnd(&rest, "SOLVE"));
  return Request(SolveRequest{std::move(tenant), problem});
}

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParse:
      return "E_PARSE";
    case ErrorCode::kUnknownCommand:
      return "E_CMD";
    case ErrorCode::kNoTenant:
      return "E_TENANT";
    case ErrorCode::kBadArgument:
      return "E_ARG";
    case ErrorCode::kAdmission:
      return "E_ADMISSION";
    case ErrorCode::kEval:
      return "E_EVAL";
    case ErrorCode::kIo:
      return "E_IO";
    case ErrorCode::kDeadline:
      return "E_DEADLINE";
  }
  return "E_EVAL";
}

const char* RequestName(const Request& request) {
  struct Visitor {
    const char* operator()(const LoadRequest&) const { return "LOAD"; }
    const char* operator()(const AssertRequest&) const { return "ASSERT"; }
    const char* operator()(const QueryRequest&) const { return "QUERY"; }
    const char* operator()(const SolveRequest&) const { return "SOLVE"; }
    const char* operator()(const SolveAllRequest&) const { return "SOLVEALL"; }
    const char* operator()(const MsoRequest&) const { return "MSO"; }
    const char* operator()(const SaveRequest&) const { return "SAVE"; }
    const char* operator()(const OpenRequest&) const { return "OPEN"; }
    const char* operator()(const StatsRequest&) const { return "STATS"; }
    const char* operator()(const DeadlineRequest&) const { return "DEADLINE"; }
    const char* operator()(const ReoptRequest&) const { return "REOPT"; }
    const char* operator()(const CloseRequest&) const { return "CLOSE"; }
    const char* operator()(const QuitRequest&) const { return "QUIT"; }
  };
  return std::visit(Visitor{}, request);
}

StatusOr<std::optional<Request>> ParseRequest(std::string_view line) {
  std::string_view trimmed = Trim(line);
  if (trimmed.empty() || trimmed.front() == '%') {
    return std::optional<Request>();
  }
  std::string_view rest = trimmed;
  std::string_view command = TakeToken(&rest);

  auto tenant_only =
      [&](auto make) -> StatusOr<std::optional<Request>> {
    TREEDL_ASSIGN_OR_RETURN(std::string tenant, TakeTenant(&rest, command));
    TREEDL_RETURN_IF_ERROR(ExpectEnd(&rest, command));
    return std::optional<Request>(make(std::move(tenant)));
  };
  auto tenant_payload =
      [&](std::string_view what,
          auto make) -> StatusOr<std::optional<Request>> {
    TREEDL_ASSIGN_OR_RETURN(std::string tenant, TakeTenant(&rest, command));
    TREEDL_ASSIGN_OR_RETURN(std::string payload,
                            TakePayload(&rest, command, what));
    return std::optional<Request>(make(std::move(tenant), std::move(payload)));
  };

  if (command == "LOAD") {
    TREEDL_ASSIGN_OR_RETURN(Request request, ParseLoad(rest));
    return std::optional<Request>(std::move(request));
  }
  if (command == "ASSERT") {
    return tenant_payload("facts", [](std::string t, std::string p) {
      return Request(AssertRequest{std::move(t), std::move(p)});
    });
  }
  if (command == "QUERY") {
    return tenant_payload("datalog program", [](std::string t, std::string p) {
      return Request(QueryRequest{std::move(t), std::move(p)});
    });
  }
  if (command == "SOLVE") {
    TREEDL_ASSIGN_OR_RETURN(Request request, ParseSolve(rest));
    return std::optional<Request>(std::move(request));
  }
  if (command == "SOLVEALL") {
    return tenant_only(
        [](std::string t) { return Request(SolveAllRequest{std::move(t)}); });
  }
  if (command == "MSO") {
    return tenant_payload("formula", [](std::string t, std::string p) {
      return Request(MsoRequest{std::move(t), std::move(p)});
    });
  }
  if (command == "SAVE") {
    return tenant_only(
        [](std::string t) { return Request(SaveRequest{std::move(t)}); });
  }
  if (command == "OPEN") {
    return tenant_only(
        [](std::string t) { return Request(OpenRequest{std::move(t)}); });
  }
  if (command == "STATS") {
    StatsRequest stats;
    std::string_view token = TakeToken(&rest);
    if (!token.empty()) {
      if (!IsIdentifier(token)) {
        return Status::ParseError("STATS: tenant '" + std::string(token) +
                                  "' is not an identifier");
      }
      stats.tenant = std::string(token);
    }
    TREEDL_RETURN_IF_ERROR(ExpectEnd(&rest, "STATS"));
    return std::optional<Request>(Request(std::move(stats)));
  }
  if (command == "DEADLINE") {
    std::string_view token = TakeToken(&rest);
    if (token.empty()) {
      return Status::ParseError("DEADLINE: expected a unit count or OFF");
    }
    TREEDL_RETURN_IF_ERROR(ExpectEnd(&rest, "DEADLINE"));
    DeadlineRequest deadline;
    if (token != "OFF") {
      TREEDL_ASSIGN_OR_RETURN(
          deadline.units, ParseUnits(token, "DEADLINE", "a unit count or OFF"));
    }
    return std::optional<Request>(Request(deadline));
  }
  if (command == "REOPT") {
    TREEDL_ASSIGN_OR_RETURN(std::string tenant, TakeTenant(&rest, "REOPT"));
    std::string_view token = TakeToken(&rest);
    if (token.empty()) {
      return Status::ParseError("REOPT: expected a unit count");
    }
    TREEDL_RETURN_IF_ERROR(ExpectEnd(&rest, "REOPT"));
    TREEDL_ASSIGN_OR_RETURN(uint64_t units,
                            ParseUnits(token, "REOPT", "a unit count"));
    return std::optional<Request>(Request(ReoptRequest{std::move(tenant), units}));
  }
  if (command == "CLOSE") {
    return tenant_only(
        [](std::string t) { return Request(CloseRequest{std::move(t)}); });
  }
  if (command == "QUIT") {
    TREEDL_RETURN_IF_ERROR(ExpectEnd(&rest, "QUIT"));
    return std::optional<Request>(Request(QuitRequest{}));
  }
  return Status::NotFound("unknown command '" + std::string(command) + "'");
}

ErrorCode ErrorCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kParseError:
      return ErrorCode::kParse;
    case StatusCode::kNotFound:
      return ErrorCode::kUnknownCommand;
    case StatusCode::kInvalidArgument:
      return ErrorCode::kBadArgument;
    case StatusCode::kResourceExhausted:
      // A fixed capacity of the engine fails the same way on every retry;
      // pool rejections and table-budget sheds may pass a later attempt.
      return status.capacity_exceeded() ? ErrorCode::kEval
                                        : ErrorCode::kAdmission;
    case StatusCode::kDeadlineExceeded:
      return ErrorCode::kDeadline;
    default:
      return ErrorCode::kEval;
  }
}

const char* ProblemName(Engine::Problem problem) {
  switch (problem) {
    case Engine::Problem::kThreeColor:
      return "3COL";
    case Engine::Problem::kThreeColorCount:
      return "#3COL";
    case Engine::Problem::kVertexCover:
      return "VC";
    case Engine::Problem::kIndependentSet:
      return "IS";
    case Engine::Problem::kDominatingSet:
      return "DS";
  }
  return "3COL";
}

StatusOr<Engine::Problem> ProblemFromName(std::string_view name) {
  if (name == "3COL") return Engine::Problem::kThreeColor;
  if (name == "#3COL") return Engine::Problem::kThreeColorCount;
  if (name == "VC") return Engine::Problem::kVertexCover;
  if (name == "IS") return Engine::Problem::kIndependentSet;
  if (name == "DS") return Engine::Problem::kDominatingSet;
  return Status::InvalidArgument("SOLVE: unknown problem '" +
                                 std::string(name) +
                                 "' (expected 3COL, #3COL, VC, IS or DS)");
}

std::string OkReply(std::string_view command, std::string_view details) {
  std::string reply = "OK ";
  reply += command;
  if (!details.empty()) {
    reply += ' ';
    reply += details;
  }
  return reply;
}

std::string DataReply(std::string_view payload) {
  std::string reply = "DATA ";
  reply += payload;
  return reply;
}

std::string ErrorReply(ErrorCode code, std::string_view message) {
  std::string reply = "ERR ";
  reply += ErrorCodeName(code);
  reply += ' ';
  // Replies are line-framed: a multi-line engine message must not smuggle
  // extra lines into the transcript.
  for (char c : message) reply += (c == '\n' || c == '\r') ? ' ' : c;
  return reply;
}

}  // namespace treedl::server
