// Reproduces paper Table 2: mean relative error of latency prediction for
// known templates at MPL 2–5, comparing the Baseline I/O, Positive I/O and
// full CQI variants of the contention metric (k-fold cross-validated, k=5).
//
// Paper values: Baseline 25.4%, Positive I/O 20.4%, CQI 20.2%.

#include "bench_support.h"

int main(int argc, char** argv) {
  using namespace contender;
  using bench::CollectExperiment;
  using bench::WorkloadQsMre;

  Flags flags(argc, argv);
  const WorkloadSampler::Options sampling = bench::ExperimentOptions(flags);
  flags.RejectUnknown();
  bench::Experiment e = CollectExperiment(sampling);

  std::cout << "=== Table 2: MRE of CQI-based latency prediction "
               "(known templates, MPL 2-5) ===\n\n";

  struct Variant {
    const char* name;
    CqiVariant variant;
  };
  const std::vector<Variant> variants = {
      {"Baseline I/O", CqiVariant::kBaselineIo},
      {"Positive I/O", CqiVariant::kPositiveIo},
      {"CQI", CqiVariant::kFull},
  };

  TablePrinter table({"Metric", "MPL 2", "MPL 3", "MPL 4", "MPL 5",
                      "MPL 2-5"});
  for (const Variant& v : variants) {
    std::vector<std::string> row = {v.name};
    SummaryStats overall;
    for (int mpl : {2, 3, 4, 5}) {
      const double mre = WorkloadQsMre(e, mpl, v.variant);
      overall.Add(mre);
      row.push_back(FormatPercent(mre));
    }
    row.push_back(FormatPercent(overall.mean()));
    table.AddRow(row);
  }
  table.Print(std::cout);

  std::cout << "\nPaper (MPL 2-5 average): Baseline I/O 25.4%, "
               "Positive I/O 20.4%, CQI 20.2%\n";
  std::cout << "Expected shape: Baseline > Positive I/O >= CQI.\n";
  return 0;
}
