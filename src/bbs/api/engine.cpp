#include "bbs/api/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <type_traits>

#include "bbs/common/assert.hpp"
#include "bbs/core/latency.hpp"
#include "bbs/core/tradeoff.hpp"
#include "bbs/core/two_phase.hpp"
#include "bbs/io/config_io.hpp"
#include "bbs/io/json.hpp"
#include "bbs/telemetry/structure_cache.hpp"

namespace bbs::api {

using linalg::Vector;

namespace {

// ---------------------------------------------------------------------------
// Session options
// ---------------------------------------------------------------------------

/// The solver options baked into a session (IpmSolver construction): the
/// one list behind the pool key and both directions of the cache payload.
/// `visit(name, field)` is called once per field, in key order.
template <typename Options, typename Visit>
void visit_baked_options(Options& ipm, Visit&& visit) {
  visit("max_iterations", ipm.max_iterations);
  visit("feas_tol", ipm.feas_tol);
  visit("gap_tol", ipm.gap_tol);
  visit("stall_iterations", ipm.stall_iterations);
  visit("step_fraction", ipm.step_fraction);
  visit("refine_steps", ipm.refine_steps);
  visit("static_regularisation", ipm.static_regularisation);
  visit("ordering", ipm.ordering);
  visit("equilibrate_rounds", ipm.equilibrate_rounds);
  visit("warm_start", ipm.warm_start);
  visit("warm_start_margin", ipm.warm_start_margin);
  visit("recovery_attempts", ipm.recovery_attempts);
  visit("recovery_regularisation_growth", ipm.recovery_regularisation_growth);
}

/// The options every pooled session is built with. Sessions never verify
/// per solve: bisection probes and sweep points are feasibility queries,
/// and the engine verifies exactly the mappings a response hands back (when
/// the request asks for verification at all). Per-execution state never
/// bakes into a session: deadlines, tokens, failpoints, trace sinks and the
/// verbosity are wildcards of the pool key and are installed on every
/// acquire() via SolveControl instead.
core::SessionOptions base_session_options(const solver::SolverOptions& ipm,
                                          double rounding_eps) {
  core::SessionOptions options;
  options.mapping.ipm = ipm;
  options.mapping.ipm.time_limit_ms = 0.0;
  options.mapping.ipm.deadline = solver::CancelToken::Clock::time_point::max();
  options.mapping.ipm.cancel = nullptr;
  options.mapping.ipm.fail_at_iteration = -1;
  options.mapping.ipm.fail_only_first_attempt = false;
  options.mapping.ipm.trace_sink = nullptr;
  options.mapping.ipm.verbosity = 0;
  options.mapping.rounding_eps = rounding_eps;
  options.mapping.verify = false;
  return options;
}

// ---------------------------------------------------------------------------
// Pool keys
// ---------------------------------------------------------------------------
//
// Two requests may share a session exactly when the programs they would
// build are identical up to the parameters a SolverSession can rewrite in
// place: required periods always; finite capacity caps when the deltas are
// program variables (joint and budget-first modes — fixed-delta programs
// have no cap rows); committed phase-1 vectors in the two-phase modes. The
// key therefore serialises everything else verbatim — platform, topology,
// WCETs, weights, which buffers are capped — plus the build mode and the
// solver options baked into a session, and wildcards only what acquire()
// re-applies per request.

void append_num(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g;", value);
  out += buf;
}

void append_index(std::string& out, linalg::Index value) {
  out += std::to_string(value);
  out += ';';
}

/// Names are user-controlled (untrusted JSONL requests), so they are
/// length-prefixed: a name containing the key's delimiters must not make
/// two structurally different configurations collide onto one session.
void append_name(std::string& out, const std::string& name) {
  out += std::to_string(name.size());
  out += ':';
  out += name;
  out += ';';
}

/// Build mode of a pooled session. The letter goes into the pool key.
enum class Mode : char {
  kJoint = 'J',
  kBudgetFirst = 'B',
  kBufferFirst = 'F',
};

Mode mode_of(const core::BuildOptions& build) {
  if (build.fixed_budgets) return Mode::kBudgetFirst;
  if (build.fixed_deltas) return Mode::kBufferFirst;
  return Mode::kJoint;
}

/// The key of a session built from `config` in `mode` with the baked
/// options `ipm` / `rounding_eps`.
std::string pool_key(const model::Configuration& config, Mode mode,
                     const solver::SolverOptions& ipm, double rounding_eps) {
  // In fixed-delta programs the caps are not rewritable (no cap rows), so
  // their values stay part of the structure instead of being wildcarded.
  const bool caps_rewritable = mode != Mode::kBufferFirst;

  std::string key;
  key += static_cast<char>(mode);
  key += ';';
  append_index(key, config.granularity());
  key += "P:";
  for (Index p = 0; p < config.num_processors(); ++p) {
    const model::Processor& proc = config.processor(p);
    append_name(key, proc.name);
    append_num(key, proc.replenishment_interval);
    append_num(key, proc.scheduling_overhead);
  }
  key += "M:";
  for (Index m = 0; m < config.num_memories(); ++m) {
    const model::Memory& mem = config.memory(m);
    append_name(key, mem.name);
    append_num(key, mem.capacity);
  }
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    const model::TaskGraph& tg = config.task_graph(gi);
    key += "G:";
    append_name(key, tg.name());
    // required_period: wildcarded (re-applied per request).
    for (Index t = 0; t < tg.num_tasks(); ++t) {
      const model::Task& task = tg.task(t);
      key += "t:";
      append_name(key, task.name);
      append_index(key, task.processor);
      append_num(key, task.wcet);
      append_num(key, task.budget_weight);
    }
    for (Index b = 0; b < tg.num_buffers(); ++b) {
      const model::Buffer& buf = tg.buffer(b);
      key += "b:";
      append_name(key, buf.name);
      append_index(key, buf.producer);
      append_index(key, buf.consumer);
      append_index(key, buf.memory);
      append_index(key, buf.container_size);
      append_index(key, buf.initial_fill);
      append_num(key, buf.size_weight);
      if (buf.max_capacity == -1) {
        key += "u;";  // uncapped: no cap row exists
      } else if (caps_rewritable) {
        key += "c;";  // capped: cap row exists, value re-applied per request
      } else {
        key += "c=";
        append_index(key, buf.max_capacity);
      }
    }
  }

  key += "O:";
  visit_baked_options(ipm, [&key](const char*, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<T, bool>) {
      key += value ? '1' : '0';
    } else if constexpr (std::is_same_v<T, double>) {
      append_num(key, value);
    } else {  // int fields and the ordering enum
      append_index(key, static_cast<linalg::Index>(value));
    }
  });
  append_num(key, rounding_eps);
  return key;
}

// ---------------------------------------------------------------------------
// Request recipes
// ---------------------------------------------------------------------------
//
// How each request kind prepares its session, in one place: the
// configuration the session is built from, its build mode, and the phase-1
// vectors a fixed-budget / fixed-delta build commits. run_checked() acquires
// its session from the recipe and request_structure_key() keys the same
// recipe, so the routing key and the pool key cannot drift apart.

struct Recipe {
  Mode mode = Mode::kJoint;
  /// The request's configuration, unless the kind adjusts a copy of it.
  const model::Configuration* request_config = nullptr;
  std::optional<model::Configuration> adjusted;
  /// Buffer-first: the capacity the phase-1 token counts are committed at.
  Index phase1_cap = 1;

  const model::Configuration& config() const {
    return adjusted ? *adjusted : *request_config;
  }

  std::string key(const RequestOptions& opts) const {
    return pool_key(config(), mode, opts.ipm, opts.rounding_eps);
  }

  /// Session options for this recipe: the base options plus the phase-1
  /// vectors of a fixed-budget / fixed-delta build.
  core::SessionOptions session_options(const RequestOptions& opts) const {
    core::SessionOptions options =
        base_session_options(opts.ipm, opts.rounding_eps);
    if (mode == Mode::kBudgetFirst) {
      options.build.fixed_budgets =
          core::budget_first_budgets(config(), opts.rounding_eps);
    } else if (mode == Mode::kBufferFirst) {
      options.build.fixed_deltas =
          core::buffer_first_deltas(config(), phase1_cap);
    }
    return options;
  }
};

bool has_graph(const model::Configuration& config, Index graph) {
  return graph >= 0 && graph < config.num_task_graphs();
}

/// Total over malformed requests too — the dispatcher keys requests before
/// anything validates them. An adjustment whose parameters are out of range
/// is skipped; run_checked() rejects such requests before acquiring.
Recipe make_recipe(const Request& request) {
  Recipe recipe;
  const model::Configuration& config = request.configuration();
  recipe.request_config = &config;
  if (const auto* r = std::get_if<SweepRequest>(&request.payload)) {
    // The swept graph's buffers are capped at cap_lo so the cap rows exist
    // in the built program.
    if (has_graph(config, r->graph) && r->cap_lo >= 1) {
      model::TaskGraph& tg =
          recipe.adjusted.emplace(config).mutable_task_graph(r->graph);
      for (Index b = 0; b < tg.num_buffers(); ++b) {
        tg.set_max_capacity(b, r->cap_lo);
      }
    }
  } else if (const auto* r = std::get_if<MinPeriodRequest>(&request.payload)) {
    if (r->flow == MinPeriodRequest::Flow::kBudgetFirst) {
      // Built with the phase-1 budgets of the probe ceiling.
      recipe.mode = Mode::kBudgetFirst;
      if (has_graph(config, r->graph) && r->period_hi > 0.0) {
        recipe.adjusted.emplace(config)
            .mutable_task_graph(r->graph)
            .set_required_period(r->period_hi);
      }
    }
  } else if (const auto* r = std::get_if<TwoPhaseRequest>(&request.payload)) {
    if (r->mode == TwoPhaseRequest::Mode::kBudgetFirst) {
      recipe.mode = Mode::kBudgetFirst;
    } else {
      recipe.mode = Mode::kBufferFirst;
      recipe.phase1_cap = r->cap_lo;
    }
  }
  return recipe;
}

/// Rejects malformed requests before they acquire (and so build) a session.
void check_request(const Request& request) {
  const model::Configuration& config = request.configuration();
  config.validate();
  if (const auto* r = std::get_if<SweepRequest>(&request.payload)) {
    BBS_REQUIRE(has_graph(config, r->graph),
                "SweepRequest: graph index out of range");
    BBS_REQUIRE(r->cap_lo >= 1 && r->cap_hi >= r->cap_lo,
                "SweepRequest: need 1 <= cap_lo <= cap_hi");
  } else if (const auto* r = std::get_if<MinPeriodRequest>(&request.payload)) {
    BBS_REQUIRE(has_graph(config, r->graph),
                "MinPeriodRequest: graph index out of range");
    BBS_REQUIRE(r->period_hi > 0.0,
                "MinPeriodRequest: period_hi must be positive");
    BBS_REQUIRE(r->rel_tol > 0.0 && r->rel_tol < 1.0,
                "MinPeriodRequest: rel_tol must be in (0, 1)");
  } else if (const auto* r = std::get_if<TwoPhaseRequest>(&request.payload)) {
    if (r->mode == TwoPhaseRequest::Mode::kBufferFirst) {
      const Index cap_hi = r->cap_hi == -1 ? r->cap_lo : r->cap_hi;
      BBS_REQUIRE(r->cap_lo >= 1 && cap_hi >= r->cap_lo,
                  "TwoPhaseRequest: need 1 <= cap_lo <= cap_hi");
    }
  } else if (const auto* r = std::get_if<LatencyRequest>(&request.payload)) {
    BBS_REQUIRE(r->graph == -1 || has_graph(config, r->graph),
                "LatencyRequest: graph index out of range");
  }
}

/// Brings a pooled session into exact agreement with a request whose key
/// matched (everything else is equal by construction of the key): every
/// graph's required period, every finite buffer cap when the program has
/// cap rows, and the phase-1 vectors of a fixed-budget / fixed-delta build.
void reparameterise(core::SolverSession& session,
                    const model::Configuration& config,
                    const core::BuildOptions& build) {
  const bool caps_rewritable = mode_of(build) != Mode::kBufferFirst;
  for (Index gi = 0; gi < config.num_task_graphs(); ++gi) {
    const model::TaskGraph& tg = config.task_graph(gi);
    const auto g = static_cast<std::size_t>(gi);
    session.set_required_period(gi, tg.required_period());
    if (caps_rewritable) {
      for (Index b = 0; b < tg.num_buffers(); ++b) {
        const Index cap = tg.buffer(b).max_capacity;
        if (cap != -1) session.set_buffer_cap(gi, b, cap);
      }
    }
    if (build.fixed_budgets) {
      session.set_fixed_budgets(gi, (*build.fixed_budgets)[g]);
    }
    if (build.fixed_deltas) {
      session.set_fixed_deltas(gi, (*build.fixed_deltas)[g]);
    }
  }
}

// ---------------------------------------------------------------------------
// Drive steps
// ---------------------------------------------------------------------------
//
// One per request kind, run on the acquired session. Each fills the response
// payload and returns whether the answer is feasible.

bool drive(core::SolverSession& session, const SolveRequest&,
           const RequestOptions& opts, ResponsePayload& out) {
  core::MappingResult mapping = session.solve();
  core::settle_lone_solve(session.config(), mapping);
  if (opts.verify) core::verify_mapping(session.config(), mapping);
  const bool feasible = mapping.feasible();
  out = SolvePayload{std::move(mapping)};
  return feasible;
}

bool drive(core::SolverSession& session, const SweepRequest& r,
           const RequestOptions&, ResponsePayload& out) {
  core::TradeoffSweep sweep =
      core::sweep_max_capacity(session, r.graph, r.cap_lo, r.cap_hi);
  const bool any_feasible =
      std::any_of(sweep.points.begin(), sweep.points.end(),
                  [](const core::TradeoffPoint& p) { return p.feasible; });
  out = SweepPayload{std::move(sweep)};
  return any_feasible;
}

bool drive(core::SolverSession& session, const MinPeriodRequest& r,
           const RequestOptions& opts, ResponsePayload& out) {
  std::optional<core::MinimalPeriodResult> found =
      r.flow == MinPeriodRequest::Flow::kJoint
          ? core::minimal_feasible_period(session, r.graph, r.period_hi,
                                          r.rel_tol, opts.verify)
          : core::minimal_feasible_period_budget_first(
                session, r.graph, r.period_hi, r.rel_tol, opts.rounding_eps,
                opts.verify);
  MinPeriodPayload payload;
  payload.found = found.has_value();
  if (found) {
    payload.period = found->period;
    payload.mapping = std::move(found->mapping);
  }
  out = std::move(payload);
  return found.has_value();
}

bool drive(core::SolverSession& session, const TwoPhaseRequest& r,
           const RequestOptions& opts, ResponsePayload& out) {
  TwoPhasePayload payload;
  if (r.mode == TwoPhaseRequest::Mode::kBudgetFirst) {
    payload.mappings.push_back(session.solve());
    core::throw_if_interrupted(payload.mappings.back());
  } else {
    const Index cap_hi = r.cap_hi == -1 ? r.cap_lo : r.cap_hi;
    payload.mappings = core::sweep_buffer_first(session, r.configuration,
                                                r.cap_lo, cap_hi);
  }
  if (opts.verify) {
    for (core::MappingResult& mapping : payload.mappings) {
      core::verify_mapping(session.config(), mapping);
    }
  }
  const bool any_feasible =
      std::any_of(payload.mappings.begin(), payload.mappings.end(),
                  [](const core::MappingResult& m) { return m.feasible(); });
  out = std::move(payload);
  return any_feasible;
}

bool drive(core::SolverSession& session, const LatencyRequest& r,
           const RequestOptions& opts, ResponsePayload& out) {
  LatencyPayload payload;
  payload.mapping = session.solve();
  core::settle_lone_solve(session.config(), payload.mapping);
  if (opts.verify) {
    core::verify_mapping(session.config(), payload.mapping);
  }
  if (payload.mapping.feasible()) {
    const model::Configuration& config = session.config();
    const Index first = r.graph == -1 ? 0 : r.graph;
    const Index last =
        r.graph == -1 ? config.num_task_graphs() - 1 : r.graph;
    for (Index gi = first; gi <= last; ++gi) {
      const core::MappedGraph& mg =
          payload.mapping.graphs[static_cast<std::size_t>(gi)];
      Vector budgets;
      std::vector<Index> capacities;
      for (const core::TaskAllocation& t : mg.tasks) {
        budgets.push_back(static_cast<double>(t.budget));
      }
      for (const core::BufferAllocation& b : mg.buffers) {
        capacities.push_back(b.capacity);
      }
      const std::optional<core::GraphLatency> latency =
          core::compute_latency_bounds(config, gi, budgets, capacities);
      LatencyPayload::GraphBound bound;
      bound.graph = gi;
      bound.has_pas = latency.has_value();
      if (latency) bound.latency = *latency;
      payload.graphs.push_back(std::move(bound));
    }
  }
  const bool feasible = payload.mapping.feasible();
  out = std::move(payload);
  return feasible;
}

// ---------------------------------------------------------------------------
// Persistent-cache session payloads
// ---------------------------------------------------------------------------
//
// The structure cache stores, next to the symbolic analysis, everything
// needed to reconstruct an equivalent pooled session at startup: the
// session's configuration (post any driver mutations — sweep caps, probe
// ceilings) and the session options that shape the built program. The
// payload is opaque to the telemetry layer; this is its one producer and
// consumer. Doubles round-trip exactly (%.17g both ways).

io::JsonValue vectors_to_json(const std::vector<Vector>& vectors) {
  io::JsonArray outer;
  outer.reserve(vectors.size());
  for (const Vector& vec : vectors) {
    io::JsonArray inner;
    inner.reserve(vec.size());
    for (const double v : vec) inner.emplace_back(v);
    outer.emplace_back(std::move(inner));
  }
  return io::JsonValue(std::move(outer));
}

std::vector<Vector> vectors_from_json(const io::JsonValue& value) {
  std::vector<Vector> vectors;
  for (const io::JsonValue& inner : value.as_array()) {
    Vector vec;
    vec.reserve(inner.as_array().size());
    for (const io::JsonValue& v : inner.as_array()) {
      vec.push_back(v.as_number());
    }
    vectors.push_back(std::move(vec));
  }
  return vectors;
}

io::JsonValue session_payload_to_json(const core::SolverSession& session) {
  const core::SessionOptions& options = session.options();

  io::JsonObject ipm_json;
  visit_baked_options(options.mapping.ipm, [&ipm_json](const char* name,
                                                        const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double>) {
      ipm_json[name] = value;
    } else {
      ipm_json[name] = static_cast<long long>(value);
    }
  });

  io::JsonObject payload;
  payload["configuration"] =
      io::configuration_to_json_value(session.config());
  payload["ipm"] = io::JsonValue(std::move(ipm_json));
  payload["rounding_eps"] = options.mapping.rounding_eps;
  if (options.build.fixed_budgets) {
    payload["fixed_budgets"] = vectors_to_json(*options.build.fixed_budgets);
  }
  if (options.build.fixed_deltas) {
    payload["fixed_deltas"] = vectors_to_json(*options.build.fixed_deltas);
  }
  return io::JsonValue(std::move(payload));
}

/// Inverse of session_payload_to_json. Throws on malformed payloads (the
/// caller converts that into a counted prewarm error).
void session_payload_from_json(const io::JsonValue& payload,
                               model::Configuration* config,
                               core::SessionOptions* options) {
  const io::JsonObject& object = payload.as_object();
  *config = io::configuration_from_json_value(object.at("configuration"));

  solver::SolverOptions ipm;
  const io::JsonObject& ipm_json = object.at("ipm").as_object();
  visit_baked_options(ipm, [&ipm_json](const char* name, auto& value) {
    using T = std::decay_t<decltype(value)>;
    const io::JsonValue& field = ipm_json.at(name);
    if constexpr (std::is_same_v<T, bool>) {
      value = field.as_bool();
    } else if constexpr (std::is_same_v<T, double>) {
      value = field.as_number();
    } else {
      value = static_cast<T>(static_cast<int>(field.as_number()));
    }
  });

  *options = base_session_options(ipm, object.at("rounding_eps").as_number());
  core::BuildOptions& build = options->build;
  if (object.contains("fixed_budgets")) {
    build.fixed_budgets = vectors_from_json(object.at("fixed_budgets"));
  }
  if (object.contains("fixed_deltas")) {
    build.fixed_deltas = vectors_from_json(object.at("fixed_deltas"));
  }
}

}  // namespace

std::string request_structure_key(const Request& request) {
  return make_recipe(request).key(request.options);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

struct Engine::PooledSession {
  std::string key;
  core::SolverSession session;
  std::uint64_t last_used = 0;
  bool hit = false;  ///< true when the last acquire() found it in the pool

  PooledSession(std::string k, const model::Configuration& config,
                core::SessionOptions options)
      : key(std::move(k)), session(config, std::move(options)) {}
};

Engine::Engine(EngineOptions options) : options_(options) {}
Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

void Engine::clear_pool() {
  pool_.clear();
  last_session_ = nullptr;
}

Engine::PooledSession& Engine::acquire(const std::string& key,
                                       const model::Configuration& config,
                                       core::SessionOptions session_options) {
  PooledSession* found = nullptr;
  for (auto& pooled : pool_) {
    if (pooled->key == key) {
      found = pooled.get();
      break;
    }
  }
  if (found != nullptr) {
    found->last_used = ++clock_;
    found->hit = true;
    ++stats_.pool_hits;
    reparameterise(found->session, config, session_options.build);
  } else {
    ++stats_.pool_misses;
    // Miss: make room first so the pool never exceeds its bound. With
    // pooling disabled (max 0) the fresh session still lives in the pool
    // for the duration of this request; run() clears it afterwards.
    if (options_.max_pool_sessions > 0) {
      while (pool_.size() >= options_.max_pool_sessions) trim_pool();
    }
    auto pooled = std::make_unique<PooledSession>(key, config,
                                                 std::move(session_options));
    pooled->last_used = ++clock_;
    pooled->hit = false;
    // A cache entry for this structure (written by a previous process or a
    // sibling engine) seeds the fresh session's symbolic analysis: the
    // first solve skips the fill-reducing ordering. Validated downstream; a
    // stale entry degrades to a full derivation, never an error.
    if (options_.structure_cache != nullptr) {
      if (std::optional<telemetry::CacheEntry> entry =
              options_.structure_cache->lookup(key)) {
        pooled->session.seed_symbolic(std::move(entry->symbolic));
      }
    }
    pool_.push_back(std::move(pooled));
    found = pool_.back().get();
  }
  // Installed unconditionally — on hits it replaces whatever control the
  // previous request left behind, on misses it arms the fresh session.
  found->session.set_solve_control(control_);
  last_session_ = found;
  return *found;
}

void Engine::trim_pool() {
  if (pool_.empty()) return;
  const auto lru = std::min_element(
      pool_.begin(), pool_.end(), [](const auto& a, const auto& b) {
        return a->last_used < b->last_used;
      });
  if (lru->get() == last_session_) last_session_ = nullptr;
  pool_.erase(lru);
  ++stats_.evictions;
}

Response Engine::run(const Request& request) {
  Deadline deadline = Deadline::max();
  if (request.options.deadline_ms > 0.0) {
    deadline = solver::CancelToken::Clock::now() +
               std::chrono::duration_cast<solver::CancelToken::Clock::duration>(
                   std::chrono::duration<double, std::milli>(
                       request.options.deadline_ms));
  }
  return run(request, deadline, nullptr);
}

Response Engine::run(const Request& request, Deadline deadline,
                     std::shared_ptr<solver::CancelToken> cancel) {
  const auto start = std::chrono::steady_clock::now();
  last_session_ = nullptr;

  // Per-execution interruption control, installed on the session this
  // request acquires. The caller's deadline (which may predate this call by
  // the request's queue wait) wins over options.deadline_ms-derived ones;
  // per-solve limits and failpoints ride along from the request options.
  control_ = core::SolveControl{};
  control_.time_limit_ms = request.options.ipm.time_limit_ms;
  control_.deadline = deadline;
  control_.cancel =
      cancel != nullptr ? std::move(cancel) : request.options.ipm.cancel;
  control_.fail_at_iteration = request.options.ipm.fail_at_iteration;
  control_.fail_only_first_attempt =
      request.options.ipm.fail_only_first_attempt;
  control_.trace_sink = request.options.ipm.trace_sink;
  control_.verbosity = request.options.ipm.verbosity;

  Response response;
  const auto fail = [&](ErrorCode code, const char* what) {
    response = Response{};
    response.status = ResponseStatus::kError;
    response.error = what;
    response.error_code = code;
  };
  try {
    response = run_checked(request);
  } catch (const DeadlineExceeded& e) {
    fail(ErrorCode::kDeadlineExceeded, e.what());
  } catch (const Cancelled& e) {
    fail(ErrorCode::kCancelled, e.what());
  } catch (const ModelError& e) {
    fail(ErrorCode::kParse, e.what());
  } catch (const NumericalError& e) {
    fail(ErrorCode::kNumericalFailure, e.what());
  } catch (const std::exception& e) {
    fail(ErrorCode::kInternal, e.what());
  }
  response.id = request.id;
  response.kind = request.kind();
  response.diagnostics.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  // Engine wall time is the solve stage; the dispatcher adds the queue
  // stage on top so daemon responses split the two on one clock.
  response.diagnostics.solve_ms = response.diagnostics.wall_ms;
  maybe_save_to_cache(response);
  if (options_.max_pool_sessions == 0) clear_pool();

  ++stats_.requests;
  switch (response.status) {
    case ResponseStatus::kOk:
      ++stats_.ok;
      break;
    case ResponseStatus::kInfeasible:
      ++stats_.infeasible;
      break;
    case ResponseStatus::kError:
      ++stats_.errors;
      break;
  }
  const Diagnostics& diag = response.diagnostics;
  stats_.ipm_iterations += diag.ipm_iterations;
  stats_.solves += static_cast<std::uint64_t>(diag.solves);
  stats_.warm_started_solves +=
      static_cast<std::uint64_t>(diag.warm_started_solves);
  stats_.recovered_solves += static_cast<std::uint64_t>(diag.recovered_solves);
  // Each fresh session runs exactly one symbolic analysis (its diagnostics
  // report the session-lifetime count, which is 1 on the request that
  // created it); pooled repeats add none.
  if (!diag.session_reused) {
    stats_.symbolic_factorisations +=
        static_cast<std::uint64_t>(diag.symbolic_factorisations);
  }
  return response;
}

void Engine::maybe_save_to_cache(const Response& response) {
  if (options_.structure_cache == nullptr || last_session_ == nullptr) return;
  // Only the request that derived a structure (pool miss, request served to
  // completion) writes it; errors may leave the session without a bound
  // workspace or with a half-configured program.
  if (last_session_->hit || response.status == ResponseStatus::kError) return;
  if (options_.structure_cache->contains(last_session_->key)) return;
  std::optional<solver::SymbolicAnalysis> symbolic =
      last_session_->session.export_symbolic();
  if (!symbolic) return;
  try {
    telemetry::CacheEntry entry;
    entry.key = last_session_->key;
    entry.symbolic = std::move(*symbolic);
    entry.session = session_payload_to_json(last_session_->session);
    options_.structure_cache->store(std::move(entry));
  } catch (const std::exception&) {
    // Cache writes are best-effort; a serialisation failure must never
    // affect the response.
  }
}

bool Engine::prewarm_entry(const telemetry::CacheEntry& entry) {
  try {
    model::Configuration config;
    core::SessionOptions session_options;
    session_payload_from_json(entry.session, &config, &session_options);
    config.validate();
    // The payload must rebuild the very session its key names; a payload
    // that lost or altered a baked-in option would otherwise serve requests
    // of that key with different solver settings.
    BBS_REQUIRE(pool_key(config, mode_of(session_options.build),
                         session_options.mapping.ipm,
                         session_options.mapping.rounding_eps) == entry.key,
                "cache entry: session payload does not match its key");
    // Make room exactly like a miss would, then install the session under
    // the entry's stored key with hit=false: the first real request finds
    // it (pool hit, session_reused=true) and its first solve loads the
    // seeded symbolic analysis instead of deriving one.
    if (options_.max_pool_sessions > 0) {
      while (pool_.size() >= options_.max_pool_sessions) trim_pool();
    }
    auto pooled = std::make_unique<PooledSession>(
        entry.key, config, std::move(session_options));
    pooled->last_used = ++clock_;
    pooled->hit = false;
    pooled->session.seed_symbolic(entry.symbolic);
    pool_.push_back(std::move(pooled));
    ++stats_.prewarmed_sessions;
    return true;
  } catch (const std::exception&) {
    if (options_.structure_cache != nullptr) {
      options_.structure_cache->note_prewarm_error();
    }
    return false;
  }
}

std::vector<Response> Engine::run_batch(const std::vector<Request>& requests) {
  std::vector<Response> responses;
  responses.reserve(requests.size());
  for (const Request& request : requests) {
    responses.push_back(run(request));
  }
  return responses;
}

Response Engine::run_checked(const Request& request) {
  check_request(request);
  const Recipe recipe = make_recipe(request);
  PooledSession& pooled =
      acquire(recipe.key(request.options), recipe.config(),
              recipe.session_options(request.options));
  // Diagnostics report this request's share of the session's counters.
  const solver::IpmWorkspace& ws = pooled.session.workspace();
  const int solves = ws.solves();
  const long iterations = ws.total_iterations();
  const int warm_started = ws.warm_started_solves();
  const int recovered = ws.recovered_solves();

  Response response;
  const bool feasible = std::visit(
      [&](const auto& r) {
        return drive(pooled.session, r, request.options, response.payload);
      },
      request.payload);
  response.status =
      feasible ? ResponseStatus::kOk : ResponseStatus::kInfeasible;

  Diagnostics& diag = response.diagnostics;
  diag.solves = ws.solves() - solves;
  diag.ipm_iterations = ws.total_iterations() - iterations;
  diag.warm_started_solves = ws.warm_started_solves() - warm_started;
  diag.recovered_solves = ws.recovered_solves() - recovered;
  diag.symbolic_factorisations =
      ws.kkt() != nullptr ? ws.kkt()->stats().symbolic_factorisations : 0;
  diag.session_reused = pooled.hit;
  return response;
}

}  // namespace bbs::api
