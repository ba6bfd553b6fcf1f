// Reproduces paper Figure 3: relative error of the KCCA and SVM baselines
// at MPL 2 when predicting *new* templates (leave-one-template-out over the
// 17-template subset the paper uses, having dropped templates whose
// features appear in no other template).
//
// Paper shape: both learners degrade badly on unseen templates — errors
// far above their static-workload figures, motivating Contender.

#include "bench_support.h"

#include "core/ml_baseline.h"

int main(int argc, char** argv) {
  using namespace contender;

  Flags flags(argc, argv);
  const WorkloadSampler::Options sampling = bench::ExperimentOptions(flags);
  flags.RejectUnknown();
  bench::Experiment e = bench::CollectExperiment(sampling);

  // The paper's 17-template subset (Fig. 3 x-axis).
  const std::vector<int> subset_ids = {2,  15, 17, 20, 22, 25, 26, 27, 32,
                                       46, 56, 60, 61, 65, 71, 79, 82};

  std::vector<MixObservation> mpl2;
  for (const MixObservation& o : e.data.observations) {
    if (o.mpl == 2) mpl2.push_back(o);
  }
  MlDataset data = BuildMlDataset(e.workload, mpl2);

  std::cout << "=== Figure 3: ML baselines on new templates (MPL 2, "
               "leave-one-template-out) ===\n\n";
  TablePrinter table({"Template", "KCCA", "SVM"});
  SummaryStats kcca_avg, svm_avg;
  std::vector<std::vector<std::string>> rows;
  for (int id : subset_ids) {
    const int idx = e.workload.IndexOfId(id);
    CONTENDER_CHECK(idx >= 0);
    auto result = EvaluateNewTemplateMl(e.workload, data, idx, e.seed);
    CONTENDER_CHECK(result.ok()) << result.status();
    kcca_avg.Add(result->kcca_mre);
    svm_avg.Add(result->svm_mre);
    rows.push_back({"q" + std::to_string(id),
                    FormatPercent(result->kcca_mre),
                    FormatPercent(result->svm_mre)});
  }
  table.AddRow({"Avg", FormatPercent(kcca_avg.mean()),
                FormatPercent(svm_avg.mean())});
  for (auto& row : rows) table.AddRow(std::move(row));
  table.Print(std::cout);

  std::cout << "\nPaper shape: errors on unseen templates greatly exceed "
               "the static figures (KCCA 32% / SVM 21%); several templates "
               "exceed 50-100% error. Neither learner generalizes across "
               "plan structures.\n";
  return 0;
}
