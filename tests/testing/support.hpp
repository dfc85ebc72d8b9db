// Shared test support: tolerance helpers and canned configurations.
//
// The individual suites used to re-derive the same small fixtures — the
// paper's T1 producer-consumer system and ad-hoc two-task chains with one
// buffer — inline in each test. This header centralises them so a fixture
// tweak (or a schema change in model::Configuration) is one edit, not
// thirty.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bbs/api/request.hpp"
#include "bbs/gen/generators.hpp"
#include "bbs/model/configuration.hpp"

namespace bbs::testing {

using linalg::Index;

// ---------------------------------------------------------------------------
// Tolerances
// ---------------------------------------------------------------------------

/// Default relative tolerance for comparing IPM solutions against closed-form
/// optima (the solver's duality-gap termination threshold dominates).
inline constexpr double kSolverRelTol = 1e-3;

/// Tight tolerance for exact linear-algebra identities (factor/solve
/// round-trips, cycle-ratio recomputation from an explicit cycle).
inline constexpr double kExactTol = 1e-9;

/// Predicate-formatter for BBS_EXPECT_NEAR_REL; evaluates each argument
/// exactly once. The max(1, |expected|) clamp is intentional: near zero a
/// purely relative tolerance would demand absurd absolute precision, so the
/// check degrades to an absolute tolerance of `rel` for |expected| < 1.
inline ::testing::AssertionResult NearRel(const char* actual_expr,
                                          const char* expected_expr,
                                          const char* rel_expr, double actual,
                                          double expected, double rel) {
  const double tol = rel * std::max(1.0, std::abs(expected));
  if (std::abs(actual - expected) <= tol) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << actual_expr << " = " << actual << " differs from " << expected_expr
         << " = " << expected << " by " << std::abs(actual - expected)
         << ", which exceeds " << rel_expr << " * max(1, |expected|) = " << tol;
}

/// EXPECT_NEAR with a tolerance relative to the expected magnitude:
/// |actual - expected| <= rel * max(1, |expected|).
#define BBS_EXPECT_NEAR_REL(actual, expected, rel) \
  EXPECT_PRED_FORMAT3(::bbs::testing::NearRel, actual, expected, rel)

// ---------------------------------------------------------------------------
// Canned configurations
// ---------------------------------------------------------------------------

/// The paper's T1 system (Section V): tasks wa/wb with chi = 1 on two
/// TDM processors with rho = 40, one unbounded buffer, period mu = 10.
/// Thin alias for gen::producer_consumer_t1 so tests depend on one spot.
inline model::Configuration paper_t1(double buffer_weight = 1e-3) {
  return gen::producer_consumer_t1(buffer_weight);
}

/// The paper's T2 system: a three-stage chain on three processors.
inline model::Configuration paper_t2(double buffer_weight = 1e-3) {
  return gen::three_stage_chain_t2(buffer_weight);
}

/// Options for the ubiquitous two-task, one-buffer fixture that most suites
/// build by hand. Defaults reproduce the ad-hoc "a -> b on p1/p2" graphs.
struct TwoTaskOptions {
  Index granularity = 1;
  double replenishment_interval = 40.0;
  double scheduling_overhead = 0.0;
  /// true: both tasks share one processor; false: one processor each.
  bool same_processor = false;
  double memory_capacity = -1.0;
  double required_period = 10.0;
  double wcet_a = 1.0;
  double wcet_b = 1.0;
  double budget_weight_a = 1.0;
  double budget_weight_b = 1.0;
  Index container_size = 1;
  Index initial_fill = 0;
  double size_weight = 1.0;
  /// -1 leaves the buffer capacity unbounded.
  Index max_capacity = -1;
};

/// Builds a validated configuration with one task graph "g": tasks "a" -> "b"
/// connected by buffer "ab" in memory "m".
model::Configuration two_task_chain(const TwoTaskOptions& opts = {});

/// A minimal *valid* configuration to mutate into invalid shapes in
/// negative-path tests: one processor, one memory, one single-task graph.
model::Configuration minimal_valid();

/// Options for the shared multi-graph sweep preset: two task graphs — a
/// three-stage "video" chain over p0 -> p1 -> p2 and a two-task "audio"
/// chain over p0 -> p2 — contending for processors p0/p2 and one memory.
/// Every buffer carries a finite max_capacity (`initial_cap`), so programs
/// built from the preset have capacity-cap rows and support the in-place
/// cap updates of SolverSession; sweeps then move the caps inside
/// [1, initial_cap] and beyond.
struct MultiGraphSweepOptions {
  double replenishment_interval = 40.0;
  double scheduling_overhead = 0.0;
  /// -1 leaves the shared memory unconstrained.
  double memory_capacity = -1.0;
  /// max_capacity applied to every buffer of both graphs.
  Index initial_cap = 8;
  double buffer_weight = 1e-3;
  double period_video = 12.0;
  double period_audio = 16.0;
  Index granularity = 1;
  /// false builds the video-only variant (the "audio job stopped" scenario
  /// of start/stop-style tests) on the identical platform.
  bool include_audio = true;
};

/// Builds the validated two-graph sweep preset described above.
model::Configuration multi_graph_sweep(const MultiGraphSweepOptions& opts = {});

// ---------------------------------------------------------------------------
// Canned requests
// ---------------------------------------------------------------------------

/// One request per execution path of api::Engine, each on graph 0 of
/// `config` and ids naming the path: solve, sweep (caps 1..4), joint and
/// budget-first min_period (period_hi 40), budget-first and buffer-first
/// (caps 1..4) two_phase, and latency. All seven answer `ok` on the paper's
/// T1 and T2 systems.
std::vector<api::Request> one_request_per_path(
    const model::Configuration& config);

}  // namespace bbs::testing
