// The static-ml workload: the §3 static split of bench_sec3_static_ml
// (MPL 2 mixes, 250 train / 75 test, shuffled from the seed), fitting
// KCCA and ε-SVR and scoring both on the test mixes. Single-threaded; it
// is the only workload that runs ml/ and math/.
//
// An untraced pass calls BuildMlDataset, EvaluateKccaMre and
// EvaluateSvmMre exactly as bench_sec3_static_ml does. A traced pass
// performs the same fits through KccaModel::Fit and SvrModel::Fit with a
// span around each, and must reproduce both MREs bit for bit.
//
// The eigensolver's sweep count, and so a fit's cost, differs by ±15%
// from one split to the next. Passes therefore cycle through kSplits
// splits of the collected data, each the one bench_sec3_static_ml would
// draw at a seed derived from --seed, so a run's median pass time does
// not hang on one draw. Split 0 is drawn at --seed itself: the reported
// kcca_mre and svm_mre are its MREs and equal bench_sec3_static_ml's
// output at that seed.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/ml_baseline.h"
#include "math/metrics.h"
#include "ml/kcca.h"
#include "ml/svm.h"
#include "perfbench.h"
#include "sim/run_cache.h"
#include "util/random.h"

namespace perfbench {
namespace {

using contender::MlDataset;
using contender::StatusOr;
using contender::Vector;

constexpr int kSplits = 4;

// The seed of split k: --seed itself for split 0.
uint64_t SplitSeed(uint64_t seed, int k) {
  return k == 0 ? seed : contender::Rng(seed ^ 0x5b1175ULL * k).Next();
}

struct Split {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

// bench_sec3_static_ml's split.
Split MakeSplit(size_t examples, uint64_t seed) {
  contender::Rng rng(seed ^ 0x5ec3);
  std::vector<size_t> idx(examples);
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.Shuffle(&idx);
  const size_t train_n = std::min<size_t>(250, idx.size() * 3 / 4);
  const size_t test_n = std::min<size_t>(75, idx.size() - train_n);
  Split split;
  split.train.assign(idx.begin(), idx.begin() + static_cast<long>(train_n));
  split.test.assign(idx.begin() + static_cast<long>(train_n),
                    idx.begin() + static_cast<long>(train_n + test_n));
  return split;
}

std::vector<contender::MixObservation> Mpl2(const Setup& setup) {
  std::vector<contender::MixObservation> mpl2;
  for (const contender::MixObservation& o : setup.data.observations) {
    if (o.mpl == 2) mpl2.push_back(o);
  }
  return mpl2;
}

struct Mres {
  StatusOr<double> kcca = 0.0;
  StatusOr<double> svm = 0.0;
};

Mres UntracedPass(const Setup& setup, uint64_t seed) {
  const MlDataset data = BuildMlDataset(setup.workload, Mpl2(setup));
  const Split split = MakeSplit(data.features.size(), seed);
  Mres mres;
  mres.kcca = EvaluateKccaMre(data, split.train, split.test);
  mres.svm = EvaluateSvmMre(data, split.train, split.test, seed);
  return mres;
}

// EvaluateKccaMre and EvaluateSvmMre, unrolled so the fits and the
// predictions carry their own spans.
Mres TracedPass(const Setup& setup, uint64_t seed) {
  std::vector<contender::MixObservation> mpl2 = Mpl2(setup);
  MlDataset data;
  {
    const ScopedSpan span(SpanName::kDataset);
    data = BuildMlDataset(setup.workload, mpl2);
  }
  const Split split = MakeSplit(data.features.size(), seed);
  std::vector<Vector> x;
  std::vector<Vector> y_kcca;
  std::vector<double> y_svr;
  for (size_t i : split.train) {
    x.push_back(data.features[i]);
    y_kcca.push_back({data.latencies[i]});
    y_svr.push_back(data.latencies[i]);
  }
  std::vector<double> observed;
  for (size_t i : split.test) observed.push_back(data.latencies[i]);

  Mres mres;
  contender::KccaModel::Options kcca_options;
  kcca_options.num_projections = 2;
  kcca_options.num_neighbors = 3;
  StatusOr<contender::KccaModel> kcca = contender::Status::Internal("unset");
  {
    const ScopedSpan span(SpanName::kKccaFit);
    kcca = contender::KccaModel::Fit(x, y_kcca, kcca_options);
  }
  if (kcca.ok()) {
    std::vector<double> predicted;
    const ScopedSpan span(SpanName::kMlPredict, split.test.size());
    for (size_t i : split.test) {
      predicted.push_back(kcca->PredictLatency(data.features[i]));
    }
    mres.kcca = contender::MeanRelativeError(observed, predicted);
  } else {
    mres.kcca = kcca.status();
  }

  contender::SvrModel::Options svr_options;
  svr_options.seed = seed;
  StatusOr<contender::SvrModel> svr = contender::Status::Internal("unset");
  {
    const ScopedSpan span(SpanName::kSvrFit);
    svr = contender::SvrModel::Fit(x, y_svr, svr_options);
  }
  if (svr.ok()) {
    std::vector<double> predicted;
    const ScopedSpan span(SpanName::kMlPredict, split.test.size());
    for (size_t i : split.test) {
      predicted.push_back(svr->Predict(data.features[i]));
    }
    mres.svm = contender::MeanRelativeError(observed, predicted);
  } else {
    mres.svm = svr.status();
  }
  return mres;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

void RunStaticMl(const RunConfig& config, const Setup& setup,
                 Report* report) {
  const uint64_t test_mixes =
      MakeSplit(Mpl2(setup).size(), config.seed).test.size();
  // The MREs of each split's first pass; later passes must repeat them.
  std::vector<std::optional<Mres>> first(kSplits);
  const int min_passes = config.trace ? 2 : 3;
  RepeatPasses(config, min_passes, report, [&](int n) {
    // A traced pass replays the split of the untraced pass before it.
    const bool traced = config.trace && n % 2 == 1;
    const int k = (config.trace ? n / 2 : n) % kSplits;
    const uint64_t seed = SplitSeed(config.seed, k);
    SetTracing(traced);
    const int64_t start = NowNs();
    const Mres mres =
        traced ? TracedPass(setup, seed) : UntracedPass(setup, seed);
    const int64_t end = NowNs();
    SetTracing(false);
    const double wall_s = static_cast<double>(end - start) * 1e-9;
    if (traced) {
      report->traced_pass_s.push_back(wall_s);
      report->profiles.push_back(Profile(Collect(), start, end));
    } else {
      report->pass_s.push_back(wall_s);
    }
    report->ops += 2 * test_mixes;
    if (!mres.kcca.ok() || !mres.svm.ok()) {
      report->ops_failed += 2 * test_mixes;
      report->failures.push_back(
          "static-ml fit failed: " +
          (mres.kcca.ok() ? mres.svm.status() : mres.kcca.status())
              .ToString());
      return;
    }
    std::optional<Mres>& split_first = first[static_cast<size_t>(k)];
    if (!split_first.has_value()) {
      split_first = mres;
    } else if (!SameBits(*mres.kcca, *split_first->kcca) ||
               !SameBits(*mres.svm, *split_first->svm)) {
      report->ops_failed += 2 * test_mixes;
      report->failures.push_back(std::string(traced ? "traced" : "untraced") +
                                 " pass MREs differ from the split's first");
    }
  });
  if (!first[0].has_value()) return;
  const Mres& mres = *first[0];
  contender::sim::RunHasher hasher;
  hasher.Add(*mres.kcca);
  hasher.Add(*mres.svm);
  report->digest = hasher.Digest();
  report->figures["ml_fit_s"] = {Median(report->pass_s), "s"};
  report->figures["kcca_mre"] = {*mres.kcca, "ratio"};
  report->figures["svm_mre"] = {*mres.svm, "ratio"};
}

}  // namespace perfbench
