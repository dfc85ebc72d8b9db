// Response summaries for the correctness gate, and the reference outcomes.
//
// Every rounded allocation a response returns is re-checked here with the
// library's independent verification (core::verify_graph for throughput,
// core::verify_platform for the platform constraints) and against the
// request's capacity caps, instead of trusting its `verified` flag. The
// names of the failed checks go to the gate, which tells known defects
// from wrong answers.
#include <set>
#include <variant>

#include "bbs/api/engine.hpp"
#include "bbs/core/verification.hpp"
#include "bench.hpp"

namespace bbsbench {

namespace {

using bbs::linalg::Index;
using bbs::model::Configuration;

using Failures = std::set<std::string>;

bool caps_respected(const Configuration& config, Index graph,
                    const std::vector<Index>& capacities) {
  const bbs::model::TaskGraph& tg = config.task_graph(graph);
  if (static_cast<Index>(capacities.size()) != tg.num_buffers()) return false;
  for (Index b = 0; b < tg.num_buffers(); ++b) {
    const Index cap = tg.buffer(b).max_capacity;
    if (cap != -1 && capacities[static_cast<std::size_t>(b)] > cap) {
      return false;
    }
  }
  return true;
}

/// Re-checks the allocation of one graph; `platform` is checked only when
/// the allocation covers every graph of the configuration.
void check_graph(const Configuration& config, Index graph,
                 const std::vector<Index>& budgets,
                 const std::vector<Index>& capacities, Failures& failures) {
  bbs::linalg::Vector b(budgets.begin(), budgets.end());
  if (!caps_respected(config, graph, capacities)) failures.insert("cap");
  if (!bbs::core::verify_graph(config, graph, b, capacities).throughput_met) {
    failures.insert("mcr");
  }
}

/// Checks the platform constraints (budgets per TDM wheel, memory) of a
/// whole allocation. A violation that clamping every capacity to its cap
/// removes is memory taken by a capacity overshoot ("cap_memory"); any
/// other is "platform".
void check_platform(const Configuration& config,
                    const std::vector<bbs::linalg::Vector>& budgets,
                    const std::vector<std::vector<Index>>& capacities,
                    Failures& failures) {
  if (bbs::core::verify_platform(config, budgets, capacities)) return;
  std::vector<std::vector<Index>> within = capacities;
  for (std::size_t g = 0; g < within.size(); ++g) {
    const bbs::model::TaskGraph& tg =
        config.task_graph(static_cast<Index>(g));
    for (std::size_t b = 0;
         b < within[g].size() && static_cast<Index>(b) < tg.num_buffers();
         ++b) {
      const Index cap = tg.buffer(static_cast<Index>(b)).max_capacity;
      if (cap != -1 && within[g][b] > cap) within[g][b] = cap;
    }
  }
  failures.insert(bbs::core::verify_platform(config, budgets, within)
                      ? "cap_memory"
                      : "platform");
}

void check_mapping(const Configuration& config,
                   const bbs::core::MappingResult& mapping,
                   Failures& failures) {
  if (static_cast<Index>(mapping.graphs.size()) != config.num_task_graphs()) {
    failures.insert("shape");
    return;
  }
  std::vector<bbs::linalg::Vector> budgets;
  std::vector<std::vector<Index>> capacities;
  for (Index g = 0; g < config.num_task_graphs(); ++g) {
    const bbs::core::MappedGraph& mg =
        mapping.graphs[static_cast<std::size_t>(g)];
    std::vector<Index> b, c;
    for (const bbs::core::TaskAllocation& t : mg.tasks) b.push_back(t.budget);
    for (const bbs::core::BufferAllocation& a : mg.buffers) {
      c.push_back(a.capacity);
    }
    check_graph(config, g, b, c, failures);
    budgets.emplace_back(b.begin(), b.end());
    capacities.push_back(std::move(c));
  }
  check_platform(config, budgets, capacities, failures);
}

std::string joined(const Failures& failures) {
  std::string out;
  for (const std::string& f : failures) {
    if (!out.empty()) out += '+';
    out += f;
  }
  return out;
}

}  // namespace

Outcome summarise(const Item& item, const bbs::api::Response& response) {
  Outcome out;
  out.status = bbs::api::to_string(response.status);
  if (response.status == bbs::api::ResponseStatus::kError) {
    out.error_code = bbs::api::to_string(response.error_code);
    return out;
  }
  const Configuration& config = item.request.configuration();
  const bool ok = response.status == bbs::api::ResponseStatus::kOk;
  Failures failures;

  if (const auto* p = std::get_if<bbs::api::SolvePayload>(&response.payload)) {
    if (ok) {
      out.value = p->mapping.objective_continuous;
      check_mapping(config, p->mapping, failures);
    }
  } else if (const auto* p =
                 std::get_if<bbs::api::LatencyPayload>(&response.payload)) {
    if (ok) {
      out.value = p->mapping.objective_continuous;
      check_mapping(config, p->mapping, failures);
    }
  } else if (const auto* p =
                 std::get_if<bbs::api::MinPeriodPayload>(&response.payload)) {
    if (p->found) {
      const auto& request =
          std::get<bbs::api::MinPeriodRequest>(item.request.payload);
      Configuration at = config;
      at.mutable_task_graph(request.graph).set_required_period(p->period);
      out.value = p->period;
      check_mapping(at, p->mapping, failures);
    }
  } else if (const auto* p =
                 std::get_if<bbs::api::SweepPayload>(&response.payload)) {
    const auto& request = std::get<bbs::api::SweepRequest>(item.request.payload);
    bbs::io::JsonArray points;
    for (const bbs::core::TradeoffPoint& point : p->sweep.points) {
      if (!point.feasible) {
        points.emplace_back(nullptr);
        continue;
      }
      points.emplace_back(point.total_budget_continuous);
      // A sweep point carries the swept graph's allocation only: check it
      // under the point's cap (the platform check needs every graph's
      // budgets, so it runs on single-graph configurations only).
      Configuration at = config;
      bbs::model::TaskGraph& tg = at.mutable_task_graph(request.graph);
      for (Index b = 0; b < tg.num_buffers(); ++b) {
        tg.set_max_capacity(b, point.max_capacity);
      }
      check_graph(at, request.graph, point.budgets, point.capacities,
                  failures);
      if (at.num_task_graphs() == 1) {
        const bbs::linalg::Vector b(point.budgets.begin(), point.budgets.end());
        check_platform(at, {b}, {point.capacities}, failures);
      }
    }
    out.value = bbs::io::JsonValue(std::move(points));
  } else {
    failures.insert("kind");  // a kind this benchmark never sends
  }
  out.failed_checks = joined(failures);
  return out;
}

bbs::io::JsonValue outcome_to_json(const std::string& key,
                                   const Outcome& outcome) {
  bbs::io::JsonArray row;
  row.emplace_back(key);
  row.emplace_back(outcome.status);
  row.emplace_back(outcome.value);
  row.emplace_back(outcome.failed_checks);
  row.emplace_back(outcome.error_code);
  return bbs::io::JsonValue(std::move(row));
}

bbs::io::JsonValue reference_outcomes(const std::vector<Item>& items) {
  bbs::api::EngineOptions options;
  options.max_pool_sessions = 0;
  bbs::api::Engine engine(options);
  bbs::io::JsonArray rows;
  for (const Item& item : items) {
    rows.push_back(outcome_to_json(item.key,
                                   summarise(item, engine.run(item.request))));
  }
  return bbs::io::JsonValue(std::move(rows));
}

bbs::io::JsonValue probe_outcomes() {
  bbs::api::Engine engine;
  bbs::io::JsonArray rows;
  for (const Item& item : defect_probe()) {
    rows.push_back(outcome_to_json(item.key,
                                   summarise(item, engine.run(item.request))));
  }
  return bbs::io::JsonValue(std::move(rows));
}

}  // namespace bbsbench
