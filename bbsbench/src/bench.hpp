// Shared declarations of the bbs benchmark driver.
//
// The driver generates a workload's requests from a seed, runs them through
// the library (in process) or through a spawned bbs_serve daemon (open
// loop), and writes one JSON result document with the raw samples. The
// Python front end (run.py) turns those samples into metrics and checks
// the responses against the expected results.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bbs/api/request.hpp"
#include "bbs/api/response.hpp"
#include "bbs/io/json.hpp"

namespace bbs::telemetry {
class StructureCache;
}

namespace bbsbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads (catalogue.cpp)
// ---------------------------------------------------------------------------

/// One distinct request of a workload. Streams refer to items by index, so
/// a key names the request's expected result however often it recurs.
struct Item {
  std::string key;
  bbs::api::Request request;  ///< as generated (used for re-verification)
  std::string line;           ///< the JSONL line the program is sent
  int tasks = 0;              ///< total tasks over all graphs
};

struct Workload {
  std::string name;
  std::vector<Item> items;
  /// Request order: indices into `items`. Closed-loop workloads cycle
  /// through it; the open-loop workload sends it exactly once.
  std::vector<std::uint32_t> stream;
  /// Open loop only: each request's due time (ms after the start of the
  /// timed window).
  std::vector<double> due_ms;
  /// Items a warm-up pass sends (one per structure), empty for cold work.
  std::vector<std::uint32_t> warmup;
  /// Closed loop: the stream is made of rounds of this many requests that
  /// carry the same mix of work (the metrics compare rounds).
  std::size_t round = 1;
};

/// Deterministic in its arguments: equal arguments give equal items,
/// streams and schedules. Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds);

/// Every item any seed of the workload can send: the expected results are
/// recorded over this set.
std::vector<Item> catalogue(const std::string& name);

/// The known defects, on requests the workloads do not send: the cold
/// variants the reference fails on, a history of three warm bisections
/// that ends above the reference period, then every sweep_explore
/// catalogue item (bisections, and sweeps at the default rounding
/// tolerance). The traced runs send them in this order to a fresh default
/// engine, so the defects they show are the same on every run.
std::vector<Item> defect_probe();

/// FNV-1a digest of a workload's lines, stream and schedule (the
/// determinism self-test compares it across processes).
std::uint64_t workload_digest(const Workload& workload);

// ---------------------------------------------------------------------------
// Correctness (checks.cpp)
// ---------------------------------------------------------------------------

/// What the correctness gate compares against the expected results: the
/// status, the continuous objective(s), and which of the benchmark's own
/// re-checks the response's rounded allocations failed.
struct Outcome {
  std::string status;      ///< "ok" | "infeasible" | "error" | "missing"
  std::string error_code;  ///< machine-readable cause of an error
  /// solve/latency: objective_continuous; sweep: array of per-point
  /// total_budget_continuous (null where infeasible); min_period: period
  /// (null when not found).
  bbs::io::JsonValue value;
  /// '+'-joined names of the failed re-checks ("cap", "cap_memory", "mcr",
  /// "platform", "shape"); empty when every allocation passed.
  std::string failed_checks;
};

Outcome summarise(const Item& item, const bbs::api::Response& response);
bbs::io::JsonValue outcome_to_json(const std::string& key,
                                   const Outcome& outcome);

/// Reference results: every item solved by a fresh, pool-less engine (a
/// cold session per request, no structure cache).
bbs::io::JsonValue reference_outcomes(const std::vector<Item>& items);

/// The defect probe's outcomes: its items sent in order to one fresh
/// default engine.
bbs::io::JsonValue probe_outcomes();

// ---------------------------------------------------------------------------
// Tracing (replay.cpp)
// ---------------------------------------------------------------------------

struct Span {
  int parent = -1;   ///< index of the parent span, -1 for a root
  int request = -1;  ///< request index the span belongs to
  const char* name = "";
  double t0_ms = 0.0;
  double t1_ms = 0.0;
};

/// In-memory span recorder: spans are appended at begin, closed at end, and
/// written out once the run is over.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  int begin(const char* name, int parent, int request);
  void end(int span);
  /// Adds a span measured elsewhere (client-side send/receive stamps).
  void add(const char* name, int parent, int request, Clock::time_point t0,
           Clock::time_point t1);
  bbs::io::JsonValue to_json() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-request counters of a replay, next to its spans.
struct ReplayCounters {
  int tasks = 0;
  bool fresh = false;  ///< a new session was built (symbolic work done)
  double factor_nnz = 0.0;
  long ipm_iterations = 0;
  int solves = 0;
  int warm_started = 0;
  int recovered = 0;
  int symbolic_loads = 0;
  int seed_rejects = 0;
  std::size_t response_bytes = 0;
};

/// One row of the per-request counter table a traced run writes.
bbs::io::JsonValue counters_json(const ReplayCounters& counters,
                                 std::size_t request_bytes);

class Replayer;
/// Replays the workload's warm-up items (one per structure) so the replay's
/// sessions are as warm as the measured engine's; returns their spans and
/// counters ({"spans": ..., "counters": ...}), the only place where warm
/// workloads show symbolic work.
bbs::io::JsonValue replay_warmup(Replayer& replayer, const Workload& workload);

/// Replays requests through the public layer calls Engine::run makes, one
/// span per call. With pooling, sessions are kept per structure key like
/// the engine's pool (unbounded: the replayed workloads stay below the
/// engine's 16-session bound or are cold anyway).
class Replayer {
 public:
  Replayer(bool pooled, bbs::telemetry::StructureCache* cache);
  ~Replayer();
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Parses `line`, executes it layer by layer and serialises the
  /// response; returns the response and fills `counters`.
  bbs::api::Response replay(const std::string& line, int request,
                            Tracer& tracer, ReplayCounters& counters);

 private:
  struct Slot;
  Slot& acquire(const bbs::api::Request& request,
                const bbs::model::Configuration& session_config, int parent,
                int request_index, Tracer& tracer, ReplayCounters& counters,
                bool* fresh);
  bool pooled_;
  bbs::telemetry::StructureCache* cache_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

// ---------------------------------------------------------------------------
// Runs (inproc.cpp, serve.cpp)
// ---------------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory of this run (cache, socket)
  std::string daemon;    ///< bbs_serve binary (serve_admission only)
};

/// Every run returns one JSON document (see run.py for the fields).
bbs::io::JsonValue run_in_process(const Workload& workload,
                                  const RunOptions& options);
bbs::io::JsonValue run_serve(const Workload& workload,
                             const RunOptions& options);

// Helpers (main.cpp).
bbs::io::JsonValue numbers(const std::vector<double>& values);
/// Time to attach a structure cache to an empty directory: what the cache
/// costs on workloads that do not use it.
double empty_cache_load_ms(const std::string& work_dir);
double self_cpu_ms();
double peak_rss_mb(int pid);  ///< 0 = this process
double process_cpu_ms(int pid);

}  // namespace bbsbench
