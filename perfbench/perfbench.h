// Shared types of the benchmark binary: the trained set-up every workload
// starts from, the run settings, and what a workload reports back.

#ifndef CONTENDER_PERFBENCH_PERFBENCH_H_
#define CONTENDER_PERFBENCH_PERFBENCH_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "sim/config.h"
#include "trace.h"
#include "workload/sampler.h"
#include "workload/workload.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  /// Measurement budget: passes repeat until it is spent.
  double seconds = 10.0;
  bool trace = false;
  /// Host cores; the widest pool any workload uses.
  int threads = 1;
};

/// The trained predictor and the data it was trained on.
struct Setup {
  contender::Workload workload = contender::Workload::Paper();
  contender::sim::SimConfig config;
  contender::TrainingData data;
  std::optional<contender::ContenderPredictor> predictor;
};

/// A named figure with its unit.
struct Figure {
  double value = 0.0;
  std::string unit;
};

/// What a workload measured.
struct Report {
  /// Wall seconds of each cold set-up.
  std::vector<double> setup_s;
  /// Digest of the first set-up's training data; every later set-up must
  /// collect the same.
  uint64_t setup_digest = 0;
  /// Wall seconds of each untraced pass over the workload's fixed input.
  std::vector<double> pass_s;
  /// Peak resident set of each pass, in MiB.
  std::vector<double> pass_peak_rss_mb;
  /// Wall seconds of each traced pass (trace runs only).
  std::vector<double> traced_pass_s;
  /// One profile per traced pass.
  std::vector<PassProfile> profiles;
  /// Profiles of traced work outside the passes (set-up, timed loops).
  std::vector<PassProfile> side_profiles;
  /// Workload-specific end-to-end figures (fleet_req_per_s, serve_p99_us,
  /// kcca_mre, ...), printed beside the gated metrics.
  std::map<std::string, Figure> figures;
  /// Run cache counters of the timed set-ups.
  uint64_t runcache_hits = 0;
  std::vector<double> runcache_misses;
  /// Per-layer figures the spans cannot give: exact counts and ratios.
  std::map<std::string, double> layer_counts;
  uint64_t ops = 0;
  uint64_t ops_failed = 0;
  /// Digest of the deterministic outputs (identical on every pass).
  uint64_t digest = 0;
  /// Correctness violations; any entry makes the run incorrect.
  std::vector<std::string> failures;
};

/// The upper median; 0 for no values.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Repeats `pass` until config.seconds of wall time are spent, and at
/// least `min_passes` times. Once per sixteenth of the budget it also
/// times one more cold set-up between passes, so set-up time samples the
/// whole run as the passes do.
void RepeatPasses(const RunConfig& config, int min_passes, Report* report,
                  const std::function<void(int)>& pass);

void RunFleet(const RunConfig& config, const Setup& setup, Report* report);
void RunServe(const RunConfig& config, const Setup& setup, Report* report);
void RunStaticMl(const RunConfig& config, const Setup& setup,
                 Report* report);

}  // namespace perfbench

#endif  // CONTENDER_PERFBENCH_PERFBENCH_H_
