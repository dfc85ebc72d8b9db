// In-process closed-loop runs: cold_solve, sweep_explore, restart_cached.
//
// One caller drives a default api::Engine with the workload's parsed
// requests, each sent when the previous one returned, until the run time
// and the minimum sample count are reached and the last round is complete.
// Every request's wall and CPU time is kept. Set-up (engine start, parsing
// the request lines through io, cache load, warm-up pass) is timed several
// times per run; the last set-up serves the timed window. restart_cached
// runs only as a traced pass, which never reads its set-up time, so it
// sets up once. A calibration kernel is timed before and after every
// set-up and every round of the stream (benchlib.rounds scales the times
// with it).
//
// Each response is summarised (re-checked) right after its call and the
// summary goes to a file, so the process holds no per-request data beyond
// the latency samples and its peak memory does not grow with the number
// of completed requests. That step does not count towards the run time.
//
// With tracing, every request is executed twice: once through
// Engine::run (the untraced reference for the overhead and the api
// counters) and once through the layer-by-layer Replayer.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bbs/api/engine.hpp"
#include "bbs/io/api_io.hpp"
#include "bbs/telemetry/structure_cache.hpp"
#include "bench.hpp"

namespace bbsbench {

namespace {

namespace fs = std::filesystem;
using bbs::io::JsonArray;
using bbs::io::JsonObject;
using bbs::io::JsonValue;

/// At least this many timed requests per run, so a p99 has ten samples
/// beyond it.
constexpr std::size_t kMinSamples = 1000;
/// Sample vectors are reserved for this many requests up front (pages are
/// only touched as samples arrive).
constexpr std::size_t kReservedSamples = 1 << 16;

JsonValue engine_stats_json(const bbs::api::EngineStats& s) {
  JsonObject o;
  o["requests"] = static_cast<long long>(s.requests);
  o["pool_hits"] = static_cast<long long>(s.pool_hits);
  o["pool_misses"] = static_cast<long long>(s.pool_misses);
  o["evictions"] = static_cast<long long>(s.evictions);
  o["symbolic_factorisations"] =
      static_cast<long long>(s.symbolic_factorisations);
  return JsonValue(std::move(o));
}

bbs::api::EngineStats minus(const bbs::api::EngineStats& a,
                            const bbs::api::EngineStats& b) {
  bbs::api::EngineStats d;
  d.requests = a.requests - b.requests;
  d.pool_hits = a.pool_hits - b.pool_hits;
  d.pool_misses = a.pool_misses - b.pool_misses;
  d.evictions = a.evictions - b.evictions;
  d.symbolic_factorisations =
      a.symbolic_factorisations - b.symbolic_factorisations;
  return d;
}

/// Time of the calibration kernel on a quiet host (a 2.1 GHz Xeon vCPU,
/// about the fastest twentieth of its timings there): the metrics are
/// scaled to the host speed at which the kernel takes this long.
constexpr double kCalibrationNominalMs = 6.0;

/// A fixed piece of work that uses no code of the library: 300 dense
/// Cholesky factorisations of a 64x64 SPD matrix, floating point in the
/// core's own cache. Timed around every set-up and every round, it tracks
/// how fast the host runs at that moment (see benchlib.rounds).
double calibration_kernel() {
  constexpr int n = 64;
  static const std::vector<double> spd = [] {
    std::vector<double> a(n * n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        a[i * n + j] = 1.0 / (1.0 + std::abs(i - j)) + (i == j ? n : 0.0);
      }
    }
    return a;
  }();
  std::vector<double> l(n * n);
  double checksum = 0.0;
  for (int rep = 0; rep < 300; ++rep) {
    l = spd;
    for (int j = 0; j < n; ++j) {
      double d = l[j * n + j];
      for (int k = 0; k < j; ++k) d -= l[j * n + k] * l[j * n + k];
      d = std::sqrt(d);
      l[j * n + j] = d;
      for (int i = j + 1; i < n; ++i) {
        double v = l[i * n + j];
        for (int k = 0; k < j; ++k) v -= l[i * n + k] * l[j * n + k];
        l[i * n + j] = v / d;
      }
    }
    checksum += l[(n - 1) * n + (n - 1)];
  }
  return checksum;
}

/// Fills a structure cache with every item of the workload, the way an
/// earlier engine process would have (not part of the timed set-up).
void fill_cache(const Workload& w, const std::string& dir) {
  fs::remove_all(dir);
  bbs::telemetry::StructureCache cache(dir, w.items.size() + 16);
  bbs::api::EngineOptions options;
  options.structure_cache = &cache;
  bbs::api::Engine engine(options);
  for (const Item& item : w.items) engine.run(item.request);
  cache.flush();
}

}  // namespace

JsonValue run_in_process(const Workload& w, const RunOptions& opt) {
  const bool restart = w.name == "restart_cached";
  const std::string cache_dir = opt.work_dir + "/cache";
  if (restart) fill_cache(w, cache_dir);

  double calibration_sink = 0.0;
  const auto calibrate = [&calibration_sink](std::vector<double>& out) {
    const Clock::time_point c0 = Clock::now();
    calibration_sink += calibration_kernel();
    out.push_back(ms_between(c0, Clock::now()));
  };
  calibration_sink += calibration_kernel();  // builds its matrix, untimed

  // --- set-up, repeated; the last one serves the run ----------------------
  const int reps = restart ? 1 : 5;
  std::vector<double> setup_s;
  std::vector<double> setup_calibration_ms;
  calibrate(setup_calibration_ms);
  std::unique_ptr<bbs::telemetry::StructureCache> cache;
  std::unique_ptr<bbs::api::Engine> engine;
  std::vector<bbs::api::Request> parsed;
  double cache_load_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    engine.reset();
    cache.reset();
    parsed.clear();
    const Clock::time_point t0 = Clock::now();
    bbs::api::EngineOptions options;
    if (restart) {
      cache = std::make_unique<bbs::telemetry::StructureCache>(
          cache_dir, w.items.size() + 16);
      cache->load();
      cache_load_ms = ms_between(t0, Clock::now());
      options.structure_cache = cache.get();
    }
    engine = std::make_unique<bbs::api::Engine>(options);
    parsed.reserve(w.items.size());
    for (const Item& item : w.items) {
      parsed.push_back(bbs::io::request_from_json(item.line));
    }
    for (const std::uint32_t index : w.warmup) engine->run(parsed[index]);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    calibrate(setup_calibration_ms);
  }

  // The replay keeps sessions per structure like the engine's pool, except
  // on the cold workloads, whose structures never repeat within the bound.
  const bool pooled = w.name == "sweep_explore";
  Replayer replayer(pooled, restart ? cache.get() : nullptr);
  Tracer tracer;
  JsonValue warmup;
  if (opt.trace) warmup = replay_warmup(replayer, w);

  // --- timed window --------------------------------------------------------
  std::vector<double> latency_ms, request_cpu_ms, engine_ms, queue_ms,
      transport_ms;
  latency_ms.reserve(kReservedSamples);
  request_cpu_ms.reserve(kReservedSamples);
  std::size_t attempted = 0;
  const std::string outcomes_path = opt.work_dir + "/outcomes.jsonl";
  std::ofstream outcomes(outcomes_path);
  double summary_ms = 0.0;
  std::vector<double> calibration_ms;
  calibrate(calibration_ms);
  JsonArray counters, replay_results;
  const bbs::api::EngineStats stats0 = engine->stats();
  const Clock::time_point start = Clock::now();
  Clock::time_point previous_end = start;
  Clock::time_point end = start;
  for (std::size_t i = 0;; ++i) {
    const std::uint32_t index = w.stream[i % w.stream.size()];
    const Item& item = w.items[index];
    const double request_cpu0 = self_cpu_ms();
    const Clock::time_point a = Clock::now();
    const bbs::api::Response response = engine->run(parsed[index]);
    const Clock::time_point b = Clock::now();
    latency_ms.push_back(ms_between(a, b));
    request_cpu_ms.push_back(self_cpu_ms() - request_cpu0);
    if (opt.trace) {
      engine_ms.push_back(response.diagnostics.wall_ms);
      queue_ms.push_back(ms_between(previous_end, a));
      transport_ms.push_back(ms_between(a, b) -
                             response.diagnostics.wall_ms);
      ReplayCounters c;
      c.tasks = item.tasks;
      const bbs::api::Response replayed =
          replayer.replay(item.line, static_cast<int>(i), tracer, c);
      counters.push_back(counters_json(c, item.line.size()));
      replay_results.push_back(
          outcome_to_json(item.key, summarise(item, replayed)));
    }
    ++attempted;
    if (attempted % w.round == 0) calibrate(calibration_ms);
    const Clock::time_point s0 = Clock::now();
    outcomes << bbs::io::write_json_compact(
                    outcome_to_json(item.key, summarise(item, response)))
             << '\n';
    end = Clock::now();
    summary_ms += ms_between(s0, end);
    previous_end = end;
    if (ms_between(start, end) - summary_ms >= opt.seconds * 1000.0 &&
        attempted >= kMinSamples && attempted % w.round == 0) {
      break;
    }
  }
  const bbs::api::EngineStats stats = minus(engine->stats(), stats0);
  const double rss = peak_rss_mb(0);
  outcomes.close();
  if (!outcomes) throw std::runtime_error("cannot write " + outcomes_path);

  // --- after the window: correctness data ---------------------------------
  JsonObject doc;
  doc["mode"] = "closed_loop";
  doc["setup_s"] = numbers(setup_s);
  doc["setup_calibration_ms"] = numbers(setup_calibration_ms);
  doc["attempted"] = static_cast<long long>(attempted);
  doc["latency_ms"] = numbers(latency_ms);
  doc["request_cpu_ms"] = numbers(request_cpu_ms);
  doc["round"] = static_cast<long long>(w.round);
  doc["calibration_ms"] = numbers(calibration_ms);
  doc["calibration_sink"] = calibration_sink;
  doc["calibration_nominal_ms"] = kCalibrationNominalMs;
  doc["peak_rss_mb"] = rss;
  JsonArray results;
  std::ifstream in(outcomes_path);
  for (std::string line; std::getline(in, line);) {
    results.push_back(bbs::io::parse_json(line));
  }
  doc["results"] = JsonValue(std::move(results));
  if (opt.trace) {
    doc["replay_results"] = JsonValue(std::move(replay_results));
    doc["warmup"] = std::move(warmup);
    doc["spans"] = tracer.to_json();
    doc["counters"] = JsonValue(std::move(counters));
    doc["engine_ms"] = numbers(engine_ms);
    doc["queue_ms"] = numbers(queue_ms);
    doc["transport_ms"] = numbers(transport_ms);
    doc["engine_stats"] = engine_stats_json(stats);
    if (!restart) doc["probe_results"] = probe_outcomes();
    doc["workers"] = 1LL;
    // No cache on the other workloads: time attaching an empty one, the
    // fixed cost the cache would add there.
    if (!restart) cache_load_ms = empty_cache_load_ms(opt.work_dir);
    doc["cache_load_ms"] = cache_load_ms;
  }
  engine.reset();
  cache.reset();
  if (restart) fs::remove_all(cache_dir);
  return JsonValue(std::move(doc));
}

}  // namespace bbsbench
