#include "bbs/io/api_io.hpp"

#include "bbs/common/assert.hpp"
#include "bbs/io/config_io.hpp"

namespace bbs::io {

namespace {

using api::Index;
using linalg::Vector;

// ---------------------------------------------------------------------------
// Small schema helpers
// ---------------------------------------------------------------------------

[[noreturn]] void schema_error(const std::string& what) {
  throw ModelError("api json: " + what);
}

const JsonValue& require(const JsonObject& obj, const std::string& key,
                         const char* where) {
  if (!obj.contains(key)) {
    schema_error(std::string(where) + " is missing required field '" + key +
                 "'");
  }
  return obj.at(key);
}

Index to_index(double d, const std::string& what) {
  return index_from_json(d, "api json: " + what);
}

Index get_index(const JsonObject& obj, const std::string& key,
                const char* where, Index fallback) {
  if (!obj.contains(key)) return fallback;
  return to_index(obj.at(key).as_number(), std::string(where) + "." + key);
}

double get_number(const JsonObject& obj, const std::string& key,
                  double fallback) {
  return obj.contains(key) ? obj.at(key).as_number() : fallback;
}

bool get_bool(const JsonObject& obj, const std::string& key, bool fallback) {
  return obj.contains(key) ? obj.at(key).as_bool() : fallback;
}

/// Graphs are referenced by name in the envelope (like every reference of
/// the config schema); a plain number is also accepted as an index.
Index graph_ref_from_json(const JsonValue& v,
                          const model::Configuration& config,
                          const char* where) {
  if (v.is_number()) {
    const Index gi = to_index(v.as_number(), std::string(where) + ".graph");
    if (gi < 0 || gi >= config.num_task_graphs()) {
      schema_error(std::string(where) + ".graph index out of range");
    }
    return gi;
  }
  const std::string& name = v.as_string();
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    if (config.task_graph(gi).name() == name) return gi;
  }
  schema_error(std::string(where) + " references unknown task graph '" +
               name + "'");
}

JsonValue graph_ref_to_json(const model::Configuration& config, Index graph) {
  return JsonValue(config.task_graph(graph).name());
}

solver::SolveStatus solve_status_from_string(const std::string& s) {
  using solver::SolveStatus;
  for (const SolveStatus status :
       {SolveStatus::kOptimal, SolveStatus::kPrimalInfeasible,
        SolveStatus::kDualInfeasible, SolveStatus::kMaxIterations,
        SolveStatus::kNumericalFailure, SolveStatus::kTimedOut,
        SolveStatus::kCancelled, SolveStatus::kInaccurate}) {
    if (s == solver::to_string(status)) return status;
  }
  schema_error("unknown solve status '" + s + "'");
}

api::ResponseStatus response_status_from_string(const std::string& s) {
  using api::ResponseStatus;
  for (const ResponseStatus status :
       {ResponseStatus::kOk, ResponseStatus::kInfeasible,
        ResponseStatus::kError}) {
    if (s == api::to_string(status)) return status;
  }
  schema_error("unknown response status '" + s + "'");
}

JsonValue index_array_to_json(const std::vector<Index>& values) {
  JsonArray arr;
  for (const Index v : values) arr.push_back(JsonValue(static_cast<double>(v)));
  return JsonValue(std::move(arr));
}

std::vector<Index> index_array_from_json(const JsonValue& v,
                                         const char* what) {
  std::vector<Index> out;
  for (const JsonValue& e : v.as_array()) {
    out.push_back(to_index(e.as_number(), what));
  }
  return out;
}

JsonValue vector_to_json(const Vector& values) {
  JsonArray arr;
  for (const double v : values) arr.push_back(JsonValue(v));
  return JsonValue(std::move(arr));
}

Vector vector_from_json(const JsonValue& v) {
  Vector out;
  for (const JsonValue& e : v.as_array()) out.push_back(e.as_number());
  return out;
}

// ---------------------------------------------------------------------------
// Payload building blocks
// ---------------------------------------------------------------------------

/// Mapping results inside responses are nameless: arrays are ordered like
/// the request's configuration. (The single-request CLI report keeps the
/// name-annotated mapping_result_to_json form.)
JsonValue mapping_result_to_json_value(const core::MappingResult& result) {
  JsonObject root;
  root["status"] = std::string(solver::to_string(result.status));
  root["objective_continuous"] = result.objective_continuous;
  root["objective_rounded"] = result.objective_rounded;
  root["ipm_iterations"] =
      JsonValue(static_cast<double>(result.ipm_iterations));
  root["warm_started"] = result.warm_started;
  root["verified"] = result.verified;
  if (result.reduced_accuracy) root["reduced_accuracy"] = true;
  JsonArray graphs;
  for (const core::MappedGraph& mg : result.graphs) {
    JsonObject g;
    JsonArray tasks;
    for (const core::TaskAllocation& t : mg.tasks) {
      JsonObject o;
      o["budget"] = JsonValue(static_cast<double>(t.budget));
      o["budget_continuous"] = t.budget_continuous;
      tasks.push_back(JsonValue(std::move(o)));
    }
    g["tasks"] = JsonValue(std::move(tasks));
    JsonArray buffers;
    for (const core::BufferAllocation& b : mg.buffers) {
      JsonObject o;
      o["capacity"] = JsonValue(static_cast<double>(b.capacity));
      o["tokens_continuous"] = b.tokens_continuous;
      buffers.push_back(JsonValue(std::move(o)));
    }
    g["buffers"] = JsonValue(std::move(buffers));
    g["mcr"] = mg.verification.mcr;
    g["required_period"] = mg.verification.required_period;
    g["throughput_met"] = mg.verification.throughput_met;
    graphs.push_back(JsonValue(std::move(g)));
  }
  root["graphs"] = JsonValue(std::move(graphs));
  return JsonValue(std::move(root));
}

core::MappingResult mapping_result_from_json_value(const JsonValue& doc) {
  const JsonObject& root = doc.as_object();
  core::MappingResult result;
  result.status = solve_status_from_string(
      require(root, "status", "mapping").as_string());
  result.objective_continuous = get_number(root, "objective_continuous", 0.0);
  result.objective_rounded = get_number(root, "objective_rounded", 0.0);
  result.ipm_iterations =
      static_cast<int>(get_index(root, "ipm_iterations", "mapping", 0));
  result.warm_started = get_bool(root, "warm_started", false);
  result.verified = get_bool(root, "verified", false);
  result.reduced_accuracy = get_bool(root, "reduced_accuracy", false);
  for (const JsonValue& gv : require(root, "graphs", "mapping").as_array()) {
    const JsonObject& g = gv.as_object();
    core::MappedGraph mg;
    for (const JsonValue& tv : require(g, "tasks", "mapping graph")
                                   .as_array()) {
      const JsonObject& o = tv.as_object();
      core::TaskAllocation t;
      t.budget = to_index(require(o, "budget", "task allocation").as_number(),
                          "task budget");
      t.budget_continuous = get_number(o, "budget_continuous", 0.0);
      mg.tasks.push_back(t);
    }
    for (const JsonValue& bv : require(g, "buffers", "mapping graph")
                                   .as_array()) {
      const JsonObject& o = bv.as_object();
      core::BufferAllocation b;
      b.capacity = to_index(
          require(o, "capacity", "buffer allocation").as_number(),
          "buffer capacity");
      b.tokens_continuous = get_number(o, "tokens_continuous", 0.0);
      mg.buffers.push_back(b);
    }
    mg.verification.mcr = get_number(g, "mcr", 0.0);
    mg.verification.required_period = get_number(g, "required_period", 0.0);
    mg.verification.throughput_met = get_bool(g, "throughput_met", false);
    result.graphs.push_back(std::move(mg));
  }
  return result;
}

JsonValue sweep_to_json_value(const core::TradeoffSweep& sweep) {
  JsonObject root;
  JsonArray points;
  for (const core::TradeoffPoint& p : sweep.points) {
    JsonObject o;
    o["max_capacity"] = JsonValue(static_cast<double>(p.max_capacity));
    o["feasible"] = p.feasible;
    o["total_budget_continuous"] = p.total_budget_continuous;
    o["budgets_continuous"] = vector_to_json(p.budgets_continuous);
    o["budgets"] = index_array_to_json(p.budgets);
    o["capacities"] = index_array_to_json(p.capacities);
    points.push_back(JsonValue(std::move(o)));
  }
  root["points"] = JsonValue(std::move(points));
  return JsonValue(std::move(root));
}

core::TradeoffSweep sweep_from_json_value(const JsonValue& doc) {
  core::TradeoffSweep sweep;
  for (const JsonValue& pv :
       require(doc.as_object(), "points", "sweep result").as_array()) {
    const JsonObject& o = pv.as_object();
    core::TradeoffPoint p;
    p.max_capacity = to_index(
        require(o, "max_capacity", "sweep point").as_number(), "max_capacity");
    p.feasible = get_bool(o, "feasible", false);
    p.total_budget_continuous = get_number(o, "total_budget_continuous", 0.0);
    if (o.contains("budgets_continuous")) {
      p.budgets_continuous = vector_from_json(o.at("budgets_continuous"));
    }
    if (o.contains("budgets")) {
      p.budgets = index_array_from_json(o.at("budgets"), "sweep budgets");
    }
    if (o.contains("capacities")) {
      p.capacities =
          index_array_from_json(o.at("capacities"), "sweep capacities");
    }
    sweep.points.push_back(std::move(p));
  }
  return sweep;
}

JsonValue latency_payload_to_json_value(const api::LatencyPayload& payload) {
  JsonObject root;
  root["mapping"] = mapping_result_to_json_value(payload.mapping);
  JsonArray graphs;
  for (const api::LatencyPayload::GraphBound& gb : payload.graphs) {
    JsonObject o;
    o["graph"] = JsonValue(static_cast<double>(gb.graph));
    o["has_pas"] = gb.has_pas;
    o["worst"] = gb.latency.worst;
    JsonArray pairs;
    for (const core::LatencyBound& p : gb.latency.pairs) {
      JsonObject pair;
      pair["source"] = JsonValue(static_cast<double>(p.source));
      pair["sink"] = JsonValue(static_cast<double>(p.sink));
      pair["latency"] = p.latency;
      pairs.push_back(JsonValue(std::move(pair)));
    }
    o["pairs"] = JsonValue(std::move(pairs));
    graphs.push_back(JsonValue(std::move(o)));
  }
  root["graphs"] = JsonValue(std::move(graphs));
  return JsonValue(std::move(root));
}

api::LatencyPayload latency_payload_from_json_value(const JsonValue& doc) {
  const JsonObject& root = doc.as_object();
  api::LatencyPayload payload;
  payload.mapping = mapping_result_from_json_value(
      require(root, "mapping", "latency result"));
  for (const JsonValue& gv :
       require(root, "graphs", "latency result").as_array()) {
    const JsonObject& o = gv.as_object();
    api::LatencyPayload::GraphBound gb;
    gb.graph = to_index(require(o, "graph", "latency graph").as_number(),
                        "latency graph");
    gb.has_pas = get_bool(o, "has_pas", false);
    gb.latency.worst = get_number(o, "worst", 0.0);
    if (o.contains("pairs")) {
      for (const JsonValue& pv : o.at("pairs").as_array()) {
        const JsonObject& pair = pv.as_object();
        core::LatencyBound bound;
        bound.source = to_index(
            require(pair, "source", "latency pair").as_number(), "source");
        bound.sink = to_index(
            require(pair, "sink", "latency pair").as_number(), "sink");
        bound.latency = get_number(pair, "latency", 0.0);
        gb.latency.pairs.push_back(bound);
      }
    }
    payload.graphs.push_back(std::move(gb));
  }
  return payload;
}

// ---------------------------------------------------------------------------
// Request options
// ---------------------------------------------------------------------------

JsonValue options_to_json_value(const api::RequestOptions& options) {
  JsonObject o;
  o["verify"] = options.verify;
  o["rounding_eps"] = options.rounding_eps;
  o["max_iterations"] =
      JsonValue(static_cast<double>(options.ipm.max_iterations));
  o["feas_tol"] = options.ipm.feas_tol;
  o["gap_tol"] = options.ipm.gap_tol;
  o["warm_start"] = options.ipm.warm_start;
  o["recovery_attempts"] =
      JsonValue(static_cast<double>(options.ipm.recovery_attempts));
  if (options.deadline_ms > 0.0) o["deadline_ms"] = options.deadline_ms;
  // Trace opt-ins serialise only when set, like deadline_ms — untraced
  // requests keep their byte-identical wire shape.
  if (options.trace) o["trace"] = options.trace;
  if (options.trace_ipm) o["trace_ipm"] = options.trace_ipm;
  return JsonValue(std::move(o));
}

api::RequestOptions options_from_json_value(const JsonValue& doc) {
  const JsonObject& o = doc.as_object();
  api::RequestOptions options;
  options.verify = get_bool(o, "verify", options.verify);
  options.rounding_eps = get_number(o, "rounding_eps", options.rounding_eps);
  options.ipm.max_iterations = static_cast<int>(get_index(
      o, "max_iterations", "options", options.ipm.max_iterations));
  options.ipm.feas_tol = get_number(o, "feas_tol", options.ipm.feas_tol);
  options.ipm.gap_tol = get_number(o, "gap_tol", options.ipm.gap_tol);
  options.ipm.warm_start = get_bool(o, "warm_start", options.ipm.warm_start);
  options.ipm.recovery_attempts = static_cast<int>(get_index(
      o, "recovery_attempts", "options", options.ipm.recovery_attempts));
  options.deadline_ms = get_number(o, "deadline_ms", options.deadline_ms);
  options.trace = get_bool(o, "trace", options.trace);
  options.trace_ipm = get_bool(o, "trace_ipm", options.trace_ipm);
  if (options.trace_ipm) options.trace = true;
  return options;
}

}  // namespace

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

JsonValue request_to_json_value(const api::Request& request) {
  JsonObject root;
  root["schema_version"] = JsonValue(kApiSchemaVersion);
  root["kind"] = std::string(request.kind());
  if (!request.id.empty()) root["id"] = request.id;
  root["options"] = options_to_json_value(request.options);
  root["configuration"] =
      configuration_to_json_value(request.configuration());

  if (const auto* r = std::get_if<api::SweepRequest>(&request.payload)) {
    root["graph"] = graph_ref_to_json(r->configuration, r->graph);
    root["cap_lo"] = JsonValue(static_cast<double>(r->cap_lo));
    root["cap_hi"] = JsonValue(static_cast<double>(r->cap_hi));
  } else if (const auto* r =
                 std::get_if<api::MinPeriodRequest>(&request.payload)) {
    root["graph"] = graph_ref_to_json(r->configuration, r->graph);
    root["period_hi"] = r->period_hi;
    root["rel_tol"] = r->rel_tol;
    root["flow"] = std::string(
        r->flow == api::MinPeriodRequest::Flow::kJoint ? "joint"
                                                       : "budget_first");
  } else if (const auto* r =
                 std::get_if<api::TwoPhaseRequest>(&request.payload)) {
    root["mode"] = std::string(
        r->mode == api::TwoPhaseRequest::Mode::kBudgetFirst ? "budget_first"
                                                            : "buffer_first");
    if (r->mode == api::TwoPhaseRequest::Mode::kBufferFirst) {
      root["cap_lo"] = JsonValue(static_cast<double>(r->cap_lo));
      if (r->cap_hi != -1) {
        root["cap_hi"] = JsonValue(static_cast<double>(r->cap_hi));
      }
    }
  } else if (const auto* r =
                 std::get_if<api::LatencyRequest>(&request.payload)) {
    if (r->graph != -1) {
      root["graph"] = graph_ref_to_json(r->configuration, r->graph);
    }
  }
  return JsonValue(std::move(root));
}

std::string request_to_json(const api::Request& request) {
  return write_json(request_to_json_value(request));
}

api::Request request_from_json_value(const JsonValue& doc) {
  if (!doc.is_object()) schema_error("request must be a json object");
  const JsonObject& root = doc.as_object();

  const double version =
      require(root, "schema_version", "request").as_number();
  if (version != static_cast<double>(kApiSchemaVersion)) {
    schema_error("unsupported schema_version " + std::to_string(version) +
                 " (this build speaks " + std::to_string(kApiSchemaVersion) +
                 ")");
  }
  const std::string& kind = require(root, "kind", "request").as_string();

  api::Request request;
  if (root.contains("id")) request.id = root.at("id").as_string();
  if (root.contains("options")) {
    request.options = options_from_json_value(root.at("options"));
  }
  model::Configuration config = configuration_from_json_value(
      require(root, "configuration", "request"));

  if (kind == "solve") {
    request.payload = api::SolveRequest{std::move(config)};
  } else if (kind == "sweep") {
    api::SweepRequest r{std::move(config)};
    r.graph = graph_ref_from_json(require(root, "graph", "sweep request"),
                                  r.configuration, "sweep request");
    r.cap_lo = get_index(root, "cap_lo", "sweep request", 1);
    r.cap_hi = get_index(root, "cap_hi", "sweep request", r.cap_lo);
    request.payload = std::move(r);
  } else if (kind == "min_period") {
    api::MinPeriodRequest r{std::move(config)};
    r.graph = graph_ref_from_json(
        require(root, "graph", "min_period request"), r.configuration,
        "min_period request");
    r.period_hi =
        require(root, "period_hi", "min_period request").as_number();
    r.rel_tol = get_number(root, "rel_tol", r.rel_tol);
    if (root.contains("flow")) {
      const std::string& flow = root.at("flow").as_string();
      if (flow == "joint") {
        r.flow = api::MinPeriodRequest::Flow::kJoint;
      } else if (flow == "budget_first") {
        r.flow = api::MinPeriodRequest::Flow::kBudgetFirst;
      } else {
        schema_error("unknown min_period flow '" + flow + "'");
      }
    }
    request.payload = std::move(r);
  } else if (kind == "two_phase") {
    api::TwoPhaseRequest r{std::move(config)};
    const std::string& mode =
        require(root, "mode", "two_phase request").as_string();
    if (mode == "budget_first") {
      r.mode = api::TwoPhaseRequest::Mode::kBudgetFirst;
    } else if (mode == "buffer_first") {
      r.mode = api::TwoPhaseRequest::Mode::kBufferFirst;
    } else {
      schema_error("unknown two_phase mode '" + mode + "'");
    }
    r.cap_lo = get_index(root, "cap_lo", "two_phase request", 1);
    r.cap_hi = get_index(root, "cap_hi", "two_phase request", -1);
    request.payload = std::move(r);
  } else if (kind == "latency") {
    api::LatencyRequest r{std::move(config)};
    if (root.contains("graph")) {
      r.graph = graph_ref_from_json(root.at("graph"), r.configuration,
                                    "latency request");
    }
    request.payload = std::move(r);
  } else {
    schema_error("unknown request kind '" + kind + "'");
  }
  return request;
}

api::Request request_from_json(const std::string& text) {
  return request_from_json_value(parse_json(text));
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

JsonValue response_to_json_value(const api::Response& response) {
  JsonObject root;
  root["schema_version"] = JsonValue(kApiSchemaVersion);
  root["kind"] = response.kind;
  if (!response.id.empty()) root["id"] = response.id;
  root["status"] = std::string(api::to_string(response.status));
  if (response.status == api::ResponseStatus::kError) {
    root["error"] = response.error;
    // Additive to schema v1: absent on non-error responses and on streams
    // written by pre-taxonomy builds.
    if (response.error_code != api::ErrorCode::kNone) {
      root["error_code"] = std::string(api::to_string(response.error_code));
    }
  }

  if (const auto* p = std::get_if<api::SolvePayload>(&response.payload)) {
    root["result"] = mapping_result_to_json_value(p->mapping);
  } else if (const auto* p =
                 std::get_if<api::SweepPayload>(&response.payload)) {
    root["result"] = sweep_to_json_value(p->sweep);
  } else if (const auto* p =
                 std::get_if<api::MinPeriodPayload>(&response.payload)) {
    JsonObject o;
    o["found"] = p->found;
    if (p->found) {
      o["period"] = p->period;
      o["mapping"] = mapping_result_to_json_value(p->mapping);
    }
    root["result"] = JsonValue(std::move(o));
  } else if (const auto* p =
                 std::get_if<api::TwoPhasePayload>(&response.payload)) {
    JsonObject o;
    JsonArray mappings;
    for (const core::MappingResult& m : p->mappings) {
      mappings.push_back(mapping_result_to_json_value(m));
    }
    o["mappings"] = JsonValue(std::move(mappings));
    root["result"] = JsonValue(std::move(o));
  } else if (const auto* p =
                 std::get_if<api::LatencyPayload>(&response.payload)) {
    root["result"] = latency_payload_to_json_value(*p);
  }

  const api::Diagnostics& diag = response.diagnostics;
  JsonObject d;
  d["wall_ms"] = diag.wall_ms;
  d["queue_ms"] = diag.queue_ms;
  d["solve_ms"] = diag.solve_ms;
  d["ipm_iterations"] = JsonValue(static_cast<double>(diag.ipm_iterations));
  d["solves"] = JsonValue(static_cast<double>(diag.solves));
  d["warm_started_solves"] =
      JsonValue(static_cast<double>(diag.warm_started_solves));
  d["recovered_solves"] =
      JsonValue(static_cast<double>(diag.recovered_solves));
  d["symbolic_factorisations"] =
      JsonValue(static_cast<double>(diag.symbolic_factorisations));
  d["session_reused"] = diag.session_reused;
  // Only traced requests carry an id — untraced responses stay byte-stable.
  if (!diag.trace_id.empty()) d["trace_id"] = diag.trace_id;
  root["diagnostics"] = JsonValue(std::move(d));
  return JsonValue(std::move(root));
}

std::string response_to_json(const api::Response& response) {
  return write_json(response_to_json_value(response));
}

api::Response response_from_json_value(const JsonValue& doc) {
  if (!doc.is_object()) schema_error("response must be a json object");
  const JsonObject& root = doc.as_object();

  const double version =
      require(root, "schema_version", "response").as_number();
  if (version != static_cast<double>(kApiSchemaVersion)) {
    schema_error("unsupported schema_version " + std::to_string(version));
  }

  api::Response response;
  response.kind = require(root, "kind", "response").as_string();
  if (root.contains("id")) response.id = root.at("id").as_string();
  response.status = response_status_from_string(
      require(root, "status", "response").as_string());
  if (root.contains("error")) response.error = root.at("error").as_string();
  if (root.contains("error_code")) {
    response.error_code =
        api::error_code_from_string(root.at("error_code").as_string());
  }

  if (response.status != api::ResponseStatus::kError) {
    const JsonValue& result = require(root, "result", "response");
    if (response.kind == "solve") {
      response.payload =
          api::SolvePayload{mapping_result_from_json_value(result)};
    } else if (response.kind == "sweep") {
      response.payload = api::SweepPayload{sweep_from_json_value(result)};
    } else if (response.kind == "min_period") {
      const JsonObject& o = result.as_object();
      api::MinPeriodPayload p;
      p.found = get_bool(o, "found", false);
      if (p.found) {
        p.period = require(o, "period", "min_period result").as_number();
        p.mapping = mapping_result_from_json_value(
            require(o, "mapping", "min_period result"));
      }
      response.payload = std::move(p);
    } else if (response.kind == "two_phase") {
      api::TwoPhasePayload p;
      for (const JsonValue& mv :
           require(result.as_object(), "mappings", "two_phase result")
               .as_array()) {
        p.mappings.push_back(mapping_result_from_json_value(mv));
      }
      response.payload = std::move(p);
    } else if (response.kind == "latency") {
      response.payload = latency_payload_from_json_value(result);
    } else {
      schema_error("unknown response kind '" + response.kind + "'");
    }
  }

  const JsonObject& d =
      require(root, "diagnostics", "response").as_object();
  response.diagnostics.wall_ms = get_number(d, "wall_ms", 0.0);
  response.diagnostics.queue_ms = get_number(d, "queue_ms", 0.0);
  response.diagnostics.solve_ms = get_number(d, "solve_ms", 0.0);
  response.diagnostics.ipm_iterations =
      static_cast<long>(get_number(d, "ipm_iterations", 0.0));
  response.diagnostics.solves =
      static_cast<int>(get_index(d, "solves", "diagnostics", 0));
  response.diagnostics.warm_started_solves = static_cast<int>(
      get_index(d, "warm_started_solves", "diagnostics", 0));
  response.diagnostics.recovered_solves = static_cast<int>(
      get_index(d, "recovered_solves", "diagnostics", 0));
  response.diagnostics.symbolic_factorisations =
      static_cast<long>(get_number(d, "symbolic_factorisations", 0.0));
  response.diagnostics.session_reused =
      get_bool(d, "session_reused", false);
  if (d.contains("trace_id")) {
    response.diagnostics.trace_id = d.at("trace_id").as_string();
  }
  return response;
}

api::Response response_from_json(const std::string& text) {
  return response_from_json_value(parse_json(text));
}

}  // namespace bbs::io
