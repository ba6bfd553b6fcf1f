// Reproduces the §3 static-workload machine-learning study: KCCA and SVM
// over query-plan feature vectors at MPL 2, with the same templates in
// training and test (250 training mixes, 75 test mixes, ~3.3:1).
//
// Paper values: KCCA 32%, SVM 21% — "moderate success" on static
// workloads (contrast with Figure 3's failure on new templates).

#include "bench_support.h"

#include "core/ml_baseline.h"

int main(int argc, char** argv) {
  using namespace contender;

  Flags flags(argc, argv);
  const WorkloadSampler::Options sampling = bench::ExperimentOptions(flags);
  flags.RejectUnknown();
  bench::Experiment e = bench::CollectExperiment(sampling);

  std::vector<MixObservation> mpl2;
  for (const MixObservation& o : e.data.observations) {
    if (o.mpl == 2) mpl2.push_back(o);
  }
  MlDataset data = BuildMlDataset(e.workload, mpl2);

  // 250 train / 75 test split, templates proportionally represented
  // (shuffle then cut).
  Rng rng(e.seed ^ 0x5ec3);
  std::vector<size_t> idx(data.features.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.Shuffle(&idx);
  const size_t train_n = std::min<size_t>(250, idx.size() * 3 / 4);
  const size_t test_n = std::min<size_t>(75, idx.size() - train_n);
  std::vector<size_t> train(idx.begin(), idx.begin() + static_cast<long>(train_n));
  std::vector<size_t> test(idx.begin() + static_cast<long>(train_n),
                           idx.begin() + static_cast<long>(train_n + test_n));

  std::cout << "=== Section 3: ML baselines on a static workload (MPL 2) "
               "===\n\n";
  std::cout << "Training mixes: " << train.size()
            << ", test mixes: " << test.size() << ", features per example: "
            << data.features[0].size() << "\n\n";

  auto kcca = EvaluateKccaMre(data, train, test);
  CONTENDER_CHECK(kcca.ok()) << kcca.status();
  auto svm = EvaluateSvmMre(data, train, test, e.seed);
  CONTENDER_CHECK(svm.ok()) << svm.status();

  TablePrinter table({"Learner", "MRE (static, known templates)"});
  table.AddRow({"KCCA", FormatPercent(*kcca)});
  table.AddRow({"SVM", FormatPercent(*svm)});
  table.Print(std::cout);

  std::cout << "\nPaper: KCCA 32%, SVM 21%. Shape: both usable for static "
               "workloads (compare Figure 3 for new templates).\n";
  return 0;
}
