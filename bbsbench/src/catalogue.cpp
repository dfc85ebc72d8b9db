// Seeded request generation for the four workloads.
//
// Every workload draws from a finite catalogue of distinct requests (items)
// so the expected results can be recorded per item key; the stream then
// says in which order the items are sent. Sizes and families are fixed by
// the item index and interleaved, so every seed and any long prefix of a
// stream carry the same mix of small and large requests.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "bbs/common/hash.hpp"
#include "bbs/common/rng.hpp"
#include "bbs/gen/generators.hpp"
#include "bbs/io/api_io.hpp"
#include "bench.hpp"

namespace bbsbench {

namespace {

using bbs::api::Request;
using bbs::linalg::Index;
using bbs::model::Configuration;

// cold_solve / restart_cached: distinct structures, 8 processors. Slot i of
// the catalogue is one of kColdVariants recorded structures of the same
// family and size (variant v draws its WCETs, edges and margin from seed v);
// the workload seed picks the variant per slot, so every seed's requests
// have recorded expected results.
constexpr int kColdItems = 1000;
constexpr int kColdVariants = 11;
constexpr int kColdTasksLo = 24;
constexpr int kColdTasksHi = 96;  // exclusive
// The recorded variants the cold reference fails on numerically (a known
// defect; expected/cold.json.gz records them as errors and a self-test
// keeps this list equal to that recording). The workloads send the next
// variant of the slot instead, so no timed request fails; the traced
// runs' defect probe still sends these (defect_probe).
constexpr std::pair<int, int> kColdReferenceFailures[] = {
    {389, 10}, {437, 6}, {545, 9}, {551, 2},
    {659, 2},  {680, 7}, {821, 8}, {947, 3}};
// Cold requests are sent in rounds of this many consecutive slots (an
// even mix of sizes and families, see spread_tasks).
constexpr std::size_t kColdRound = 100;
// restart_cached replays the first 500 of those structures (still far above
// the pool bound, so every request misses the pool): filling the cache
// before the clock starts then costs half a cold pass.
constexpr int kRestartItems = 500;
// sweep_explore: capacity sweeps of 8 structures of 8-32 tasks at 4 period
// levels. The catalogue also holds a bisection per structure and level;
// warm bisections stop above the reference period depending on the
// session's history (period_overshoot, a known defect), so the workload
// sends sweeps only and the defect probe sends the bisections.
constexpr int kSweepStructures = 8;
constexpr double kSweepPeriodLevels[] = {1.0, 1.15, 1.3, 1.45};
constexpr Index kSweepCapHi = 12;
// Sweeps round their allocations with this tolerance, the IPM's own
// convergence tolerance (feas_tol = gap_tol = 1e-6) with a margin. At the
// default 1e-7, a warm-started point's capacity that sits on its cap comes
// back a few 1e-6 above it and rounds to cap + 1 (cap_overshoot, a known
// defect the defect probe still shows).
constexpr double kSweepRoundingEps = 1e-5;
// serve_admission: 24 structures of 6-24 tasks, solve + latency requests,
// period and cap levels varied per request.
constexpr int kServeStructures = 24;
constexpr double kServePeriodLevels[] = {1.0, 1.1, 1.2, 1.3, 1.4, 1.5};
constexpr Index kServeCapLevels[] = {6, 9, 12};
/// Offered rate of the open-loop workload: about 55% of what a 2-worker
/// daemon sustains on this catalogue (~1.85k req/s saturated on a 4-core
/// x86-64 host; see NOTES.md). Half the rate did not steady the latency:
/// more of the daemon's thread hand-offs then wake idle vCPUs.
constexpr double kServeRateRps = 1000.0;
constexpr std::size_t kClosedStreamLength = 1 << 16;
/// The warm workloads (sweep_explore, serve_admission) serve one fixed set
/// of structures: the workload seed draws their request streams and arrival
/// times, not the structures, so the split of structures over the daemon's
/// workers (affinity routing hashes the structure) is the same on every
/// seed.
constexpr std::uint64_t kStructureSeed = 20100308;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Structure `index` of a catalogue: the family (chain, random DAG,
/// multi-job) and the task count are fixed by the index, so every seed
/// gets the same size mix; the seed draws the WCETs, the DAG edges, the job
/// split and the throughput margin.
Configuration make_structure(int index, int tasks, std::uint64_t seed,
                             Index processors) {
  bbs::Rng rng(seed);
  bbs::gen::GenParams params;
  params.num_processors = processors;
  params.seed = rng.next_u64();
  params.feasible_margin = rng.next_real(1.2, 1.8);
  switch (index % 3) {
    case 0:
      return bbs::gen::make_chain(tasks, params);
    case 1:
      return bbs::gen::make_random_dag(tasks, 0.35, params);
    default: {
      const Index jobs = 2 + (index / 3) % 3;
      return bbs::gen::make_multi_job(jobs, std::max<Index>(2, tasks / jobs),
                                      params);
    }
  }
}

/// Task count of structure `index` of `count`, spread evenly over
/// [lo, hi) in an order that interleaves small and large.
int spread_tasks(int index, int count, int lo, int hi) {
  const int step = 37;  // coprime with every count used here
  return lo + static_cast<int>(
                  static_cast<long>((index * step) % count) * (hi - lo) /
                  count);
}

void scale_periods(Configuration& config, double factor) {
  for (Index g = 0; g < config.num_task_graphs(); ++g) {
    bbs::model::TaskGraph& tg = config.mutable_task_graph(g);
    tg.set_required_period(tg.required_period() * factor);
  }
}

void cap_all_buffers(Configuration& config, Index cap) {
  for (Index g = 0; g < config.num_task_graphs(); ++g) {
    bbs::model::TaskGraph& tg = config.mutable_task_graph(g);
    for (Index b = 0; b < tg.num_buffers(); ++b) tg.set_max_capacity(b, cap);
  }
}

Item make_item(std::string key, Request request) {
  Item item;
  item.key = std::move(key);
  item.request = std::move(request);
  item.request.id = item.key;
  item.line = bbs::io::write_json_compact(
      bbs::io::request_to_json_value(item.request));
  item.tasks = static_cast<int>(item.request.configuration().total_tasks());
  return item;
}

Item make_cold_item(int slot, std::uint64_t variant) {
  const int tasks = spread_tasks(slot, kColdItems, kColdTasksLo, kColdTasksHi);
  Request request;
  request.payload = bbs::api::SolveRequest{make_structure(
      slot, tasks, mix(variant, 0x100000u + static_cast<std::uint64_t>(slot)),
      8)};
  return make_item("c" + std::to_string(slot) + ".v" + std::to_string(variant),
                   std::move(request));
}

bool reference_fails(int slot, std::uint64_t variant) {
  for (const auto& [s, v] : kColdReferenceFailures) {
    if (s == slot && static_cast<std::uint64_t>(v) == variant) return true;
  }
  return false;
}

void add_cold(Workload& w, std::uint64_t seed, int count) {
  for (int i = 0; i < count; ++i) {
    std::uint64_t variant =
        mix(seed, 0x400000u + static_cast<std::uint64_t>(i)) % kColdVariants;
    if (reference_fails(i, variant)) variant = (variant + 1) % kColdVariants;
    w.items.push_back(make_cold_item(i, variant));
  }
  w.round = kColdRound;
  w.stream.resize(kClosedStreamLength);
  for (std::size_t i = 0; i < w.stream.size(); ++i) {
    w.stream[i] = static_cast<std::uint32_t>(i % w.items.size());
  }
}

void add_sweep(Workload& w, std::uint64_t seed) {
  for (int s = 0; s < kSweepStructures; ++s) {
    const Configuration base = make_structure(
        s, spread_tasks(s, kSweepStructures, 8, 33),
        mix(kStructureSeed, 0x200000u + static_cast<std::uint64_t>(s)), 4);
    const double period = base.task_graph(0).required_period();
    for (int level = 0; level < 4; ++level) {
      const std::string stem =
          "s" + std::to_string(s) + ".l" + std::to_string(level);
      Configuration config = base;
      scale_periods(config, kSweepPeriodLevels[level]);
      Request sweep;
      sweep.payload = bbs::api::SweepRequest{config, 0, 1, kSweepCapHi};
      sweep.options.rounding_eps = kSweepRoundingEps;
      w.items.push_back(make_item(stem + ".sweep", std::move(sweep)));
      Request bisect;
      bbs::api::MinPeriodRequest mp;
      mp.configuration = config;
      mp.graph = 0;
      mp.period_hi = period * kSweepPeriodLevels[level];
      bisect.payload = std::move(mp);
      w.items.push_back(make_item(stem + ".min_period", std::move(bisect)));
    }
  }
  // Items alternate sweep, min_period; the stream sends the sweeps only.
  std::vector<std::uint32_t> sweeps;
  for (std::uint32_t i = 0; i < w.items.size(); i += 2) sweeps.push_back(i);
  for (int s = 0; s < kSweepStructures; ++s) {
    w.warmup.push_back(static_cast<std::uint32_t>(s * 8));
  }
  // Rounds: each a seeded permutation of every sweep, so every round sends
  // the same work and only its order varies with the seed.
  bbs::Rng rng(mix(seed, 0x2FFFFFu));
  w.round = sweeps.size();
  w.stream.reserve(kClosedStreamLength);
  while (w.stream.size() + sweeps.size() <= kClosedStreamLength) {
    for (std::size_t i = sweeps.size(); i > 1; --i) {
      std::swap(sweeps[i - 1], sweeps[static_cast<std::size_t>(rng.next_int(
                                   0, static_cast<std::int64_t>(i) - 1))]);
    }
    w.stream.insert(w.stream.end(), sweeps.begin(), sweeps.end());
  }
}

void add_serve(Workload& w, std::uint64_t seed, double seconds) {
  constexpr int kPeriods = 6;
  constexpr int kCaps = 3;
  for (int s = 0; s < kServeStructures; ++s) {
    const Configuration base = make_structure(
        s, spread_tasks(s, kServeStructures, 6, 25),
        mix(kStructureSeed, 0x300000u + static_cast<std::uint64_t>(s)), 4);
    for (int kind = 0; kind < 2; ++kind) {
      for (int p = 0; p < kPeriods; ++p) {
        for (int c = 0; c < kCaps; ++c) {
          Configuration config = base;
          scale_periods(config, kServePeriodLevels[p]);
          cap_all_buffers(config, kServeCapLevels[c]);
          Request request;
          if (kind == 0) {
            request.payload = bbs::api::SolveRequest{std::move(config)};
          } else {
            request.payload = bbs::api::LatencyRequest{std::move(config), -1};
          }
          const std::string key = "v" + std::to_string(s) +
                                  (kind == 0 ? ".solve" : ".latency") +
                                  ".p" + std::to_string(p) + ".c" +
                                  std::to_string(c);
          w.items.push_back(make_item(key, std::move(request)));
        }
      }
    }
  }
  const int per_structure = 2 * kPeriods * kCaps;
  for (int s = 0; s < kServeStructures; ++s) {
    w.warmup.push_back(static_cast<std::uint32_t>(s * per_structure));
  }

  // Open loop: seeded exponential inter-arrival gaps, rescaled so the
  // schedule spans exactly count / rate seconds (the offered rate is then
  // the same on every seed; only the arrival pattern varies).
  const std::size_t count =
      static_cast<std::size_t>(std::llround(kServeRateRps * seconds));
  bbs::Rng rng(mix(seed, 0x3FFFFFu));
  w.stream.resize(count);
  w.due_ms.resize(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    w.stream[i] = static_cast<std::uint32_t>(
        rng.next_int(0, static_cast<std::int64_t>(w.items.size()) - 1));
    w.due_ms[i] = t;
    t += -std::log(1.0 - rng.next_double());
  }
  const double scale = count == 0 ? 0.0 : (1000.0 * count / kServeRateRps) / t;
  for (double& due : w.due_ms) due *= scale;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       double seconds) {
  Workload w;
  w.name = name;
  if (name == "cold_solve") {
    add_cold(w, seed, kColdItems);
  } else if (name == "restart_cached") {
    add_cold(w, seed, kRestartItems);
  } else if (name == "sweep_explore") {
    add_sweep(w, seed);
  } else if (name == "serve_admission") {
    add_serve(w, seed, seconds);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

std::vector<Item> catalogue(const std::string& name) {
  if (name != "cold_solve" && name != "restart_cached") {
    return make_workload(name, 0, 1.0).items;
  }
  std::vector<Item> items;
  for (std::uint64_t v = 0; v < kColdVariants; ++v) {
    for (int i = 0; i < kColdItems; ++i) items.push_back(make_cold_item(i, v));
  }
  return items;
}

std::vector<Item> defect_probe() {
  std::vector<Item> items;
  for (const auto& [slot, variant] : kColdReferenceFailures) {
    items.push_back(make_cold_item(slot, static_cast<std::uint64_t>(variant)));
  }
  std::vector<Item> sweep = make_workload("sweep_explore", 0, 1.0).items;
  for (Item& item : sweep) {
    item.request.options.rounding_eps = bbs::api::RequestOptions{}.rounding_eps;
  }
  // A warm bisection overshoots only after some session histories: the
  // bisections of structure 0 at period levels 0, 1 and 1 again (catalogue
  // items 1, 3, 3) end the third one at 3.898 against the reference's
  // 3.105. Then every item of the catalogue once.
  for (const std::size_t index : {1, 3, 3}) items.push_back(sweep[index]);
  for (Item& item : sweep) items.push_back(std::move(item));
  return items;
}

std::uint64_t workload_digest(const Workload& w) {
  std::uint64_t h = bbs::common::fnv1a_64(w.name);
  for (const Item& item : w.items) h = bbs::common::fnv1a_64(item.line, h);
  h = bbs::common::fnv1a_64(w.stream.data(), w.stream.size() * sizeof(std::uint32_t),
                    h);
  return bbs::common::fnv1a_64(w.due_ms.data(), w.due_ms.size() * sizeof(double), h);
}

}  // namespace bbsbench
