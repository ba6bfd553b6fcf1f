// Shared machinery for the experiment harnesses: training-data collection
// with command-line overrides, k-fold QS evaluation, and leave-templates-out
// predictor training.

#ifndef CONTENDER_BENCH_BENCH_SUPPORT_H_
#define CONTENDER_BENCH_BENCH_SUPPORT_H_

#include <iostream>
#include <optional>

#include "core/predictor.h"
#include "core/qs_model.h"
#include "math/metrics.h"
#include "ml/kfold.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/summary_stats.h"
#include "util/table_printer.h"
#include "workload/sampler.h"

namespace contender::bench {

/// The experiment context: workload, hardware model, and collected
/// training data.
struct Experiment {
  Workload workload = Workload::Paper();
  sim::SimConfig config;
  TrainingData data;
  uint64_t seed = 42;
};

/// The sampling options selected by --seed, --lhs_runs and --threads (0 =
/// hardware concurrency).
inline WorkloadSampler::Options ExperimentOptions(const Flags& flags) {
  WorkloadSampler::Options options;
  options.seed = flags.Seed();
  options.lhs_runs = static_cast<int>(flags.GetInt("lhs_runs", 4));
  options.threads = static_cast<int>(flags.GetInt("threads", 0));
  return options;
}

/// Collects the full §2 sampling protocol (isolated profiles, spoiler
/// latencies, scan times, all pairs at MPL 2, LHS runs at MPL 3–5), fanned
/// across a thread pool; results are bit-identical for every thread count.
inline Experiment CollectExperiment(const WorkloadSampler::Options& options) {
  Experiment e;
  e.seed = options.seed;
  WorkloadSampler sampler(&e.workload, e.config, options);
  auto data = sampler.CollectAll();
  CONTENDER_CHECK(data.ok()) << data.status();
  e.data = std::move(*data);
  return e;
}

/// Per-template k-fold cross-validated MRE of the QS model at one MPL
/// (paper §2: k = 5). Returns nullopt when the template lacks enough
/// observations.
inline std::optional<double> KFoldQsMre(const Experiment& e,
                                        int template_index, int mpl,
                                        CqiVariant variant, int folds = 5) {
  auto set = BuildQsTrainingSet(e.data.profiles, e.data.scan_times,
                                e.data.observations, template_index,
                                units::Mpl(mpl), variant);
  if (!set.ok() || set->cqi.size() < static_cast<size_t>(folds)) {
    return std::nullopt;
  }
  const TemplateProfile& p =
      e.data.profiles[static_cast<size_t>(template_index)];
  const double l_min = p.isolated_latency.value();
  const double l_max = p.spoiler_latency.at(mpl).value();

  Rng rng(e.seed ^ static_cast<uint64_t>(template_index * 131 + mpl));
  std::vector<double> observed, predicted;
  for (const FoldSplit& split : KFoldSplits(set->cqi.size(), folds, &rng)) {
    std::vector<units::Cqi> x;
    std::vector<units::ContinuumPoint> y;
    for (size_t i : split.train) {
      x.push_back(set->cqi[i]);
      y.push_back(set->continuum[i]);
    }
    auto model = FitQsModel(x, y);
    if (!model.ok()) continue;
    for (size_t i : split.test) {
      observed.push_back(set->latency[i].value());
      predicted.push_back(
          model->PredictContinuum(set->cqi[i]).value() * (l_max - l_min) +
          l_min);
    }
  }
  if (observed.empty()) return std::nullopt;
  return MeanRelativeError(observed, predicted);
}

/// Workload-wide k-fold QS MRE at one MPL (mean over templates).
inline double WorkloadQsMre(const Experiment& e, int mpl, CqiVariant variant) {
  SummaryStats stats;
  for (size_t t = 0; t < e.data.profiles.size(); ++t) {
    auto mre = KFoldQsMre(e, static_cast<int>(t), mpl, variant);
    if (mre.has_value()) stats.Add(*mre);
  }
  return stats.mean();
}

/// A training view with one set of templates held out: profiles reindexed,
/// observations touching held-out templates dropped.
struct HeldOutView {
  std::vector<TemplateProfile> profiles;
  std::vector<MixObservation> observations;
  /// Maps original template index -> reindexed position (-1 if held out).
  std::vector<int> remap;
};

inline HeldOutView MakeHeldOutView(const Experiment& e,
                                   const std::vector<int>& held_out) {
  HeldOutView view;
  view.remap.assign(e.data.profiles.size(), -1);
  auto is_held = [&](int idx) {
    for (int h : held_out) {
      if (h == idx) return true;
    }
    return false;
  };
  int next = 0;
  for (const TemplateProfile& p : e.data.profiles) {
    if (is_held(p.template_index)) continue;
    TemplateProfile copy = p;
    view.remap[static_cast<size_t>(p.template_index)] = next;
    copy.template_index = next++;
    view.profiles.push_back(std::move(copy));
  }
  for (const MixObservation& o : e.data.observations) {
    bool touches = is_held(o.primary_index);
    for (int c : o.concurrent_indices) touches |= is_held(c);
    if (touches) continue;
    MixObservation copy = o;
    copy.primary_index = view.remap[static_cast<size_t>(o.primary_index)];
    for (int& c : copy.concurrent_indices) {
      c = view.remap[static_cast<size_t>(c)];
    }
    view.observations.push_back(std::move(copy));
  }
  return view;
}

/// Predicts every observation of `held` (skipping mixes whose partners are
/// also held out) with the given per-observation prediction function and
/// returns the MRE. The callback receives the remapped concurrent indices.
template <typename PredictFn>
std::optional<double> HeldOutMre(const Experiment& e, const HeldOutView& view,
                                 int held, int mpl, PredictFn&& predict) {
  std::vector<double> observed, predicted;
  for (const MixObservation& o : e.data.observations) {
    if (o.primary_index != held || o.mpl != mpl) continue;
    std::vector<int> conc;
    bool usable = true;
    for (int c : o.concurrent_indices) {
      const int mapped = view.remap[static_cast<size_t>(c)];
      if (mapped < 0) {
        usable = false;
        break;
      }
      conc.push_back(mapped);
    }
    if (!usable) continue;
    StatusOr<units::Seconds> pred = predict(conc);
    if (!pred.ok()) continue;
    observed.push_back(o.latency.value());
    predicted.push_back(pred->value());
  }
  if (observed.empty()) return std::nullopt;
  return MeanRelativeError(observed, predicted);
}

}  // namespace contender::bench

#endif  // CONTENDER_BENCH_BENCH_SUPPORT_H_
