// Layer-by-layer replay of requests, with one span per public layer call.
//
// The replay executes what api::Engine::run executes for the request kinds
// the benchmark sends, but from outside the library and through each
// layer's public entry point, so every call can be timed on its own:
//
//   io::request_from_json -> core::build_algorithm1 (or a SolverSession)
//   -> KktSystem::factorise twice + KktSystem::solve (symbolic vs numeric)
//   -> IpmSolver::solve with a workspace (or SolverSession::solve)
//   -> core::mapping_from_solution -> core::verify_mapping
//   -> io::response_to_json
//
// The KKT probe's symbolic analysis is handed to the solver's workspace, so
// the ordering runs once per structure, as in the engine.
#include <optional>
#include <variant>

#include "bbs/api/engine.hpp"
#include "bbs/common/assert.hpp"
#include "bbs/core/latency.hpp"
#include "bbs/core/tradeoff.hpp"
#include "bbs/io/api_io.hpp"
#include "bbs/solver/kkt_system.hpp"
#include "bbs/solver/nt_scaling.hpp"
#include "bbs/telemetry/structure_cache.hpp"
#include "bench.hpp"

namespace bbsbench {

namespace api = bbs::api;
namespace core = bbs::core;
namespace solver = bbs::solver;
using bbs::linalg::Index;
using bbs::linalg::Vector;
using bbs::model::Configuration;

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

int Tracer::begin(const char* name, int parent, int request) {
  Span span;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.t0_ms = ms_between(origin_, Clock::now());
  span.t1_ms = span.t0_ms;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].t1_ms =
      ms_between(origin_, Clock::now());
}

void Tracer::add(const char* name, int parent, int request,
                 Clock::time_point t0, Clock::time_point t1) {
  Span span;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.t0_ms = ms_between(origin_, t0);
  span.t1_ms = ms_between(origin_, t1);
  spans_.push_back(span);
}

bbs::io::JsonValue Tracer::to_json() const {
  bbs::io::JsonArray rows;
  rows.reserve(spans_.size());
  for (const Span& s : spans_) {
    bbs::io::JsonArray row;
    row.emplace_back(s.name);
    row.emplace_back(static_cast<long long>(s.parent));
    row.emplace_back(static_cast<long long>(s.request));
    row.emplace_back(s.t0_ms);
    row.emplace_back(s.t1_ms);
    rows.emplace_back(std::move(row));
  }
  return bbs::io::JsonValue(std::move(rows));
}

bbs::io::JsonValue counters_json(const ReplayCounters& c,
                                 std::size_t request_bytes) {
  bbs::io::JsonArray row;
  row.emplace_back(static_cast<long long>(c.tasks));
  row.emplace_back(c.fresh);
  row.emplace_back(c.factor_nnz);
  row.emplace_back(static_cast<long long>(c.ipm_iterations));
  row.emplace_back(static_cast<long long>(c.solves));
  row.emplace_back(static_cast<long long>(c.warm_started));
  row.emplace_back(static_cast<long long>(c.recovered));
  row.emplace_back(static_cast<long long>(c.symbolic_loads));
  row.emplace_back(static_cast<long long>(c.seed_rejects));
  row.emplace_back(static_cast<long long>(request_bytes));
  row.emplace_back(static_cast<long long>(c.response_bytes));
  return bbs::io::JsonValue(std::move(row));
}

// ---------------------------------------------------------------------------
// Replayer
// ---------------------------------------------------------------------------

namespace {

/// RAII span: closes on scope exit, also when the layer call throws.
class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name, int parent, int request)
      : tracer_(tracer), id_(tracer.begin(name, parent, request)) {}
  ~Scoped() { tracer_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Options every engine session runs with (see Engine::run_checked).
core::SessionOptions session_options(const api::RequestOptions& opts) {
  core::SessionOptions base;
  base.mapping.ipm = opts.ipm;
  base.mapping.rounding_eps = opts.rounding_eps;
  base.mapping.verify = false;
  return base;
}

bool uses_session(const api::Request& request) {
  return std::holds_alternative<api::SweepRequest>(request.payload) ||
         std::holds_alternative<api::MinPeriodRequest>(request.payload);
}

/// The configuration the engine builds a request's session from.
Configuration session_config(const api::Request& request) {
  Configuration config = request.configuration();
  if (const auto* r = std::get_if<api::SweepRequest>(&request.payload)) {
    bbs::model::TaskGraph& tg = config.mutable_task_graph(r->graph);
    for (Index b = 0; b < tg.num_buffers(); ++b) {
      tg.set_max_capacity(b, r->cap_lo);
    }
  }
  return config;
}

}  // namespace

struct Replayer::Slot {
  std::string key;
  Configuration config;  ///< raw path: the program's configuration
  std::optional<core::BuiltProgram> program;
  std::unique_ptr<core::SolverSession> session;
  solver::IpmWorkspace workspace;
  std::unique_ptr<solver::KktSystem> kkt;
  std::unique_ptr<solver::NtScaling> scaling;
  Vector p, q, u, v;

  const solver::ConicProblem& problem() const {
    return session ? session->program().problem : program->problem;
  }
  const solver::IpmWorkspace& ws() const {
    return session ? session->workspace() : workspace;
  }
};

Replayer::Replayer(bool pooled, bbs::telemetry::StructureCache* cache)
    : pooled_(pooled), cache_(cache) {}
Replayer::~Replayer() = default;

Replayer::Slot& Replayer::acquire(const api::Request& request,
                                  const Configuration& config, int parent,
                                  int req, Tracer& tracer,
                                  ReplayCounters& counters, bool* fresh) {
  const std::string key = api::request_structure_key(request);
  if (pooled_) {
    for (auto& slot : slots_) {
      if (slot->key != key) continue;
      *fresh = false;
      {
        // Re-apply the per-request parameters the pool key wildcards.
        Scoped span(tracer, "core.update", parent, req);
        for (Index g = 0; g < config.num_task_graphs(); ++g) {
          const bbs::model::TaskGraph& tg = config.task_graph(g);
          if (slot->session) {
            slot->session->set_required_period(g, tg.required_period());
          } else {
            slot->config.mutable_task_graph(g).set_required_period(
                tg.required_period());
            slot->program->refresh_required_period(slot->config, g);
          }
          for (Index b = 0; b < tg.num_buffers(); ++b) {
            const Index cap = tg.buffer(b).max_capacity;
            if (cap == -1) continue;
            if (slot->session) {
              slot->session->set_buffer_cap(g, b, cap);
            } else {
              slot->config.mutable_task_graph(g).set_max_capacity(b, cap);
              slot->program->refresh_buffer_cap(slot->config, g, b);
            }
          }
        }
      }
      {
        Scoped span(tracer, "solver.kkt_numeric", parent, req);
        slot->kkt->factorise(*slot->scaling);
      }
      {
        Scoped span(tracer, "solver.kkt_solve", parent, req);
        slot->kkt->solve(*slot->scaling, slot->p, slot->q, slot->u, slot->v);
      }
      return *slot;
    }
  }
  if (!pooled_) slots_.clear();

  *fresh = true;
  auto slot = std::make_unique<Slot>();
  slot->key = key;
  {
    Scoped span(tracer, "core.build", parent, req);
    config.validate();
    if (uses_session(request)) {
      slot->session = std::make_unique<core::SolverSession>(
          config, session_options(request.options));
    } else {
      slot->config = config;
      slot->program = core::build_algorithm1(slot->config);
    }
  }
  // KKT probe: the first factorisation derives the symbolic analysis (or
  // loads it from the structure cache), the second is numeric only, at the
  // cone-identity scaling.
  const solver::ConicProblem& problem = slot->problem();
  const solver::SolverOptions& ipm = request.options.ipm;
  solver::KktSystem::Options kkt_options;
  kkt_options.ordering = ipm.ordering;
  kkt_options.static_regularisation = ipm.static_regularisation;
  kkt_options.refine_steps = ipm.refine_steps;
  slot->kkt = std::make_unique<solver::KktSystem>(problem.g(), kkt_options);
  if (cache_ != nullptr) {
    if (std::optional<bbs::telemetry::CacheEntry> entry = cache_->lookup(key)) {
      slot->kkt->seed_symbolic(std::move(entry->symbolic));
    }
  }
  slot->scaling = std::make_unique<solver::NtScaling>(problem.cone());
  Vector e(static_cast<std::size_t>(problem.cone().dim()));
  problem.cone().identity(e);
  slot->scaling->update(e, e);
  slot->p.assign(static_cast<std::size_t>(problem.num_vars()), 1.0);
  slot->q.assign(e.size(), 1.0);
  {
    Scoped span(tracer, "solver.kkt_first", parent, req);
    slot->kkt->factorise(*slot->scaling);
  }
  {
    Scoped span(tracer, "solver.kkt_numeric", parent, req);
    slot->kkt->factorise(*slot->scaling);
  }
  {
    Scoped span(tracer, "solver.kkt_solve", parent, req);
    slot->kkt->solve(*slot->scaling, slot->p, slot->q, slot->u, slot->v);
  }
  counters.factor_nnz = static_cast<double>(slot->kkt->factor_nnz());
  counters.symbolic_loads = slot->kkt->stats().symbolic_loads;
  counters.seed_rejects = slot->kkt->stats().symbolic_seed_rejects;
  if (std::optional<solver::SymbolicAnalysis> analysis =
          slot->kkt->export_symbolic()) {
    if (slot->session) {
      slot->session->seed_symbolic(std::move(*analysis));
    } else {
      slot->workspace.seed_symbolic(std::move(*analysis));
    }
  }
  slots_.push_back(std::move(slot));
  return *slots_.back();
}

bbs::io::JsonValue replay_warmup(Replayer& replayer, const Workload& w) {
  Tracer tracer;
  bbs::io::JsonArray counters;
  for (std::size_t k = 0; k < w.warmup.size(); ++k) {
    const Item& item = w.items[w.warmup[k]];
    ReplayCounters c;
    c.tasks = item.tasks;
    replayer.replay(item.line, static_cast<int>(k), tracer, c);
    counters.push_back(counters_json(c, item.line.size()));
  }
  bbs::io::JsonObject out;
  out["spans"] = tracer.to_json();
  out["counters"] = bbs::io::JsonValue(std::move(counters));
  return bbs::io::JsonValue(std::move(out));
}

api::Response Replayer::replay(const std::string& line, int req,
                               Tracer& tracer, ReplayCounters& counters) {
  Scoped root(tracer, "request", -1, req);
  api::Request request;
  {
    Scoped span(tracer, "io.parse", root.id(), req);
    request = bbs::io::request_from_json(line);
  }

  api::Response response;
  response.id = request.id;
  response.kind = request.kind();
  {
    Scoped engine(tracer, "api.engine", root.id(), req);
    const int parent = engine.id();
    try {
      const Configuration config = session_config(request);
      bool fresh = false;
      Slot& slot =
          acquire(request, config, parent, req, tracer, counters, &fresh);
      counters.fresh = fresh;
      const int solves0 = slot.ws().solves();
      const long iterations0 = slot.ws().total_iterations();
      const int warm0 = slot.ws().warm_started_solves();
      const int recovered0 = slot.ws().recovered_solves();
      const bool verify = request.options.verify;

      if (std::holds_alternative<api::SolveRequest>(request.payload) ||
          std::holds_alternative<api::LatencyRequest>(request.payload)) {
        solver::SolveResult solution;
        {
          Scoped span(tracer, "solver.ipm", parent, req);
          solution = solver::IpmSolver(request.options.ipm)
                         .solve(slot.program->problem, slot.workspace);
        }
        core::MappingResult mapping;
        {
          Scoped span(tracer, "core.mapping", parent, req);
          core::MappingOptions options;
          options.ipm = request.options.ipm;
          options.rounding_eps = request.options.rounding_eps;
          options.verify = false;
          mapping = core::mapping_from_solution(slot.config, *slot.program,
                                                solution, options);
        }
        const bool is_solve =
            std::holds_alternative<api::SolveRequest>(request.payload);
        if (is_solve &&
            mapping.status == solver::SolveStatus::kNumericalFailure) {
          throw bbs::NumericalError("interior-point solve failed to converge");
        }
        if (verify) {
          Scoped span(tracer, "dataflow.mcr", parent, req);
          core::verify_mapping(slot.config, mapping);
        }
        response.status = mapping.feasible() ? api::ResponseStatus::kOk
                                             : api::ResponseStatus::kInfeasible;
        if (is_solve) {
          response.payload = api::SolvePayload{std::move(mapping)};
        } else {
          Scoped span(tracer, "core.latency", parent, req);
          api::LatencyPayload payload;
          payload.mapping = std::move(mapping);
          const Index graph =
              std::get<api::LatencyRequest>(request.payload).graph;
          const Index first = graph == -1 ? 0 : graph;
          const Index last =
              graph == -1 ? slot.config.num_task_graphs() - 1 : graph;
          for (Index g = first; payload.mapping.feasible() && g <= last; ++g) {
            const core::MappedGraph& mg =
                payload.mapping.graphs[static_cast<std::size_t>(g)];
            Vector budgets;
            std::vector<Index> capacities;
            for (const core::TaskAllocation& t : mg.tasks) {
              budgets.push_back(static_cast<double>(t.budget));
            }
            for (const core::BufferAllocation& b : mg.buffers) {
              capacities.push_back(b.capacity);
            }
            const std::optional<core::GraphLatency> latency =
                core::compute_latency_bounds(slot.config, g, budgets,
                                             capacities);
            api::LatencyPayload::GraphBound bound;
            bound.graph = g;
            bound.has_pas = latency.has_value();
            if (latency) bound.latency = *latency;
            payload.graphs.push_back(std::move(bound));
          }
          response.payload = std::move(payload);
        }
      } else if (const auto* r =
                     std::get_if<api::SweepRequest>(&request.payload)) {
        core::TradeoffSweep sweep;
        for (Index cap = r->cap_lo; cap <= r->cap_hi; ++cap) {
          core::MappingResult result;
          {
            Scoped span(tracer, "core.session_solve", parent, req);
            slot.session->set_all_buffer_caps(r->graph, cap);
            result = slot.session->solve();
          }
          // The session rounds inside solve(); what is left of the mapping
          // step here is turning the rounded allocation into a sweep point.
          Scoped span(tracer, "core.mapping", parent, req);
          core::TradeoffPoint point;
          point.max_capacity = cap;
          point.feasible = result.feasible();
          if (point.feasible) {
            const core::MappedGraph& mg =
                result.graphs[static_cast<std::size_t>(r->graph)];
            for (const core::TaskAllocation& t : mg.tasks) {
              point.budgets_continuous.push_back(t.budget_continuous);
              point.budgets.push_back(t.budget);
              point.total_budget_continuous += t.budget_continuous;
            }
            for (const core::BufferAllocation& b : mg.buffers) {
              point.capacities.push_back(b.capacity);
            }
          }
          sweep.points.push_back(std::move(point));
        }
        bool any = false;
        for (const core::TradeoffPoint& p : sweep.points) any |= p.feasible;
        response.status = any ? api::ResponseStatus::kOk
                              : api::ResponseStatus::kInfeasible;
        response.payload = api::SweepPayload{std::move(sweep)};
      } else {
        const auto& mp = std::get<api::MinPeriodRequest>(request.payload);
        std::optional<core::MinimalPeriodResult> found;
        {
          Scoped span(tracer, "core.bisection", parent, req);
          found = core::minimal_feasible_period(*slot.session, mp.graph,
                                                mp.period_hi, mp.rel_tol,
                                                /*verify_result=*/false);
        }
        if (found && verify) {
          // The session is left at the found period.
          Scoped span(tracer, "dataflow.mcr", parent, req);
          core::verify_mapping(slot.session->config(), found->mapping);
        }
        api::MinPeriodPayload payload;
        payload.found = found.has_value();
        if (found) {
          payload.period = found->period;
          payload.mapping = std::move(found->mapping);
        }
        response.status = payload.found ? api::ResponseStatus::kOk
                                        : api::ResponseStatus::kInfeasible;
        response.payload = std::move(payload);
      }

      counters.solves = slot.ws().solves() - solves0;
      counters.ipm_iterations = slot.ws().total_iterations() - iterations0;
      counters.warm_started = slot.ws().warm_started_solves() - warm0;
      counters.recovered = slot.ws().recovered_solves() - recovered0;
      api::Diagnostics& diag = response.diagnostics;
      diag.solves = counters.solves;
      diag.ipm_iterations = counters.ipm_iterations;
      diag.warm_started_solves = counters.warm_started;
      diag.recovered_solves = counters.recovered;
      diag.session_reused = !fresh;
    } catch (const bbs::NumericalError& e) {
      response.status = api::ResponseStatus::kError;
      response.error = e.what();
      response.error_code = api::ErrorCode::kNumericalFailure;
    } catch (const bbs::ModelError& e) {
      response.status = api::ResponseStatus::kError;
      response.error = e.what();
      response.error_code = api::ErrorCode::kParse;
    } catch (const std::exception& e) {
      response.status = api::ResponseStatus::kError;
      response.error = e.what();
      response.error_code = api::ErrorCode::kInternal;
    }
  }
  {
    Scoped span(tracer, "io.serialise", root.id(), req);
    counters.response_bytes = bbs::io::response_to_json(response).size();
  }
  return response;
}

}  // namespace bbsbench
