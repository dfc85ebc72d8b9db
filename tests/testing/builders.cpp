#include "testing/support.hpp"

#include <utility>

namespace bbs::testing {

model::Configuration two_task_chain(const TwoTaskOptions& opts) {
  model::Configuration config(opts.granularity);
  const Index p1 = config.add_processor("p1", opts.replenishment_interval,
                                        opts.scheduling_overhead);
  const Index p2 = opts.same_processor
                       ? p1
                       : config.add_processor("p2",
                                              opts.replenishment_interval,
                                              opts.scheduling_overhead);
  const Index mem = config.add_memory("m", opts.memory_capacity);

  model::TaskGraph tg("g", opts.required_period);
  const Index a = tg.add_task("a", p1, opts.wcet_a, opts.budget_weight_a);
  const Index b = tg.add_task("b", p2, opts.wcet_b, opts.budget_weight_b);
  const Index ab = tg.add_buffer("ab", a, b, mem, opts.container_size,
                                 opts.initial_fill, opts.size_weight);
  if (opts.max_capacity != -1) {
    tg.set_max_capacity(ab, opts.max_capacity);
  }
  config.add_task_graph(std::move(tg));
  config.validate();
  return config;
}

model::Configuration multi_graph_sweep(const MultiGraphSweepOptions& opts) {
  model::Configuration config(opts.granularity);
  const Index p0 = config.add_processor("p0", opts.replenishment_interval,
                                        opts.scheduling_overhead);
  const Index p1 = config.add_processor("p1", opts.replenishment_interval,
                                        opts.scheduling_overhead);
  const Index p2 = config.add_processor("p2", opts.replenishment_interval,
                                        opts.scheduling_overhead);
  const Index mem = config.add_memory("m", opts.memory_capacity);

  {
    model::TaskGraph video("video", opts.period_video);
    const Index a = video.add_task("v_dec", p0, 1.0);
    const Index b = video.add_task("v_scale", p1, 1.0);
    const Index c = video.add_task("v_out", p2, 1.0);
    const Index ab = video.add_buffer("v_ab", a, b, mem, 1, 0,
                                      opts.buffer_weight);
    const Index bc = video.add_buffer("v_bc", b, c, mem, 1, 0,
                                      opts.buffer_weight);
    video.set_max_capacity(ab, opts.initial_cap);
    video.set_max_capacity(bc, opts.initial_cap);
    config.add_task_graph(std::move(video));
  }
  if (opts.include_audio) {
    model::TaskGraph audio("audio", opts.period_audio);
    const Index a = audio.add_task("a_dec", p0, 1.0);
    const Index b = audio.add_task("a_out", p2, 1.0);
    const Index ab = audio.add_buffer("a_ab", a, b, mem, 1, 0,
                                      opts.buffer_weight);
    audio.set_max_capacity(ab, opts.initial_cap);
    config.add_task_graph(std::move(audio));
  }
  config.validate();
  return config;
}

model::Configuration minimal_valid() {
  model::Configuration config(1);
  const Index p = config.add_processor("p", 40.0);
  config.add_memory("m", -1.0);
  model::TaskGraph tg("g", 10.0);
  tg.add_task("a", p, 1.0);
  config.add_task_graph(std::move(tg));
  config.validate();
  return config;
}

std::vector<api::Request> one_request_per_path(
    const model::Configuration& config) {
  std::vector<api::Request> requests;
  const auto add = [&requests](const char* id, api::RequestPayload payload) {
    api::Request request;
    request.id = id;
    request.payload = std::move(payload);
    requests.push_back(std::move(request));
  };
  add("solve", api::SolveRequest{config});
  add("sweep", api::SweepRequest{config, 0, 1, 4});
  api::MinPeriodRequest search{config};
  search.period_hi = 40.0;
  add("min_period_joint", search);
  search.flow = api::MinPeriodRequest::Flow::kBudgetFirst;
  add("min_period_budget_first", search);
  add("two_phase_budget_first", api::TwoPhaseRequest{config});
  add("two_phase_buffer_first",
      api::TwoPhaseRequest{config, api::TwoPhaseRequest::Mode::kBufferFirst, 1,
                           4});
  add("latency", api::LatencyRequest{config});
  return requests;
}

}  // namespace bbs::testing
