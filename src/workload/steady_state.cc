#include "workload/steady_state.h"

#include <unordered_map>

#include "sim/engine.h"
#include "util/summary_stats.h"

namespace contender {

namespace {

/// Trims warmup/tail samples and computes per-stream means from the raw
/// collected latencies.
SteadyStateResult AssembleResult(
    const std::vector<int>& mix, const SteadyStateOptions& options,
    const std::vector<std::vector<double>>& collected, double duration) {
  SteadyStateResult result;
  result.streams.resize(mix.size());
  for (size_t s = 0; s < mix.size(); ++s) {
    StreamResult& sr = result.streams[s];
    sr.template_index = mix[s];
    const auto& c = collected[s];
    const size_t begin =
        static_cast<size_t>(options.warmup_per_stream) < c.size()
            ? static_cast<size_t>(options.warmup_per_stream)
            : c.size();
    const size_t end =
        std::min(c.size(),
                 begin + static_cast<size_t>(options.samples_per_stream));
    sr.latencies.assign(c.begin() + static_cast<long>(begin),
                        c.begin() + static_cast<long>(end));
    sr.mean_latency = Mean(sr.latencies);
  }
  result.duration = duration;
  return result;
}

}  // namespace

StatusOr<SteadyStateResult> RunSteadyState(const Workload& workload,
                                           const std::vector<int>& mix,
                                           const sim::SimConfig& config,
                                           const SteadyStateOptions& options) {
  if (mix.empty()) {
    return Status::InvalidArgument("RunSteadyState: empty mix");
  }
  for (int idx : mix) {
    if (idx < 0 || idx >= workload.size()) {
      return Status::InvalidArgument("RunSteadyState: bad template index");
    }
  }
  if (options.samples_per_stream <= 0) {
    return Status::InvalidArgument(
        "RunSteadyState: samples_per_stream must be positive");
  }

  Rng rng(options.seed);
  sim::Engine engine(config, rng.Next());

  const size_t num_streams = mix.size();
  const int needed = options.warmup_per_stream + options.samples_per_stream;

  std::vector<std::vector<double>> collected(num_streams);
  std::unordered_map<int, size_t> stream_of_process;

  auto launch = [&](size_t stream) {
    const int idx = mix[stream];
    sim::QuerySpec spec = workload.Instantiate(idx, &rng);
    const int pid = engine.AddProcess(spec, engine.now());
    stream_of_process[pid] = stream;
  };

  auto all_collected = [&]() {
    for (const auto& c : collected) {
      if (static_cast<int>(c.size()) < needed) return false;
    }
    return true;
  };

  engine.SetCompletionCallback([&](const sim::ProcessResult& r) {
    auto it = stream_of_process.find(r.process_id);
    if (it == stream_of_process.end()) return;
    const size_t stream = it->second;
    collected[stream].push_back(r.latency().value());
    if (all_collected()) {
      engine.RequestStop();
      return;
    }
    launch(stream);
  });

  for (size_t s = 0; s < num_streams; ++s) launch(s);

  Status st = engine.Run();
  if (!st.ok()) return st;

  return AssembleResult(mix, options, collected, engine.now().value());
}

}  // namespace contender
