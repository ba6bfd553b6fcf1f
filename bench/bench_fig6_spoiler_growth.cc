// Reproduces paper Figure 6: spoiler latency under increasing concurrency
// level for the three template categories — light/CPU-mixed (q62), I/O-bound
// with small intermediates (q71), and memory-bound (q22) — plus the §5.5
// linearity check: growth models trained on MPLs 1–3 predict MPLs 4–5.
//
// Paper shape: all three grow ~linearly; q22 grows far fastest (swapping),
// q62 slowest; extrapolation error ~8% on average.

#include "bench_support.h"

#include "core/spoiler_model.h"

int main(int argc, char** argv) {
  using namespace contender;

  Flags flags(argc, argv);
  const WorkloadSampler::Options sampling = bench::ExperimentOptions(flags);
  flags.RejectUnknown();
  bench::Experiment e = bench::CollectExperiment(sampling);

  std::cout << "=== Figure 6: spoiler latency vs multiprogramming level "
               "===\n\n";
  TablePrinter table({"Template", "MPL 1 (iso)", "MPL 2", "MPL 3", "MPL 4",
                      "MPL 5", "Slowdown@5"});
  for (int id : {62, 71, 22}) {
    const int idx = e.workload.IndexOfId(id);
    const TemplateProfile& p = e.data.profiles[static_cast<size_t>(idx)];
    std::vector<std::string> row = {"q" + std::to_string(id),
                                    FormatDouble(p.isolated_latency.value(), 0)};
    for (int mpl : {2, 3, 4, 5}) {
      row.push_back(FormatDouble(p.spoiler_latency.at(mpl).value(), 0));
    }
    row.push_back(FormatDouble(
        p.spoiler_latency.at(5) / p.isolated_latency, 1) + "x");
    table.AddRow(row);
  }
  table.Print(std::cout);

  // §5.5 linearity: train on MPL 1-3, test on 4-5, across all templates.
  std::vector<double> observed, predicted;
  SummaryStats r2;
  for (const TemplateProfile& p : e.data.profiles) {
    auto model = FitSpoilerGrowth(p, {1, 2, 3});
    if (!model.ok()) continue;
    r2.Add(model->r_squared);
    for (int mpl : {4, 5}) {
      observed.push_back(p.spoiler_latency.at(mpl).value());
      predicted.push_back(
          model->PredictLatency(units::Mpl(mpl), p.isolated_latency).value());
    }
  }
  std::cout << "\nLinear extrapolation (fit MPL 1-3 -> predict MPL 4-5): MRE "
            << FormatPercent(MeanRelativeError(observed, predicted))
            << " over " << e.data.profiles.size()
            << " templates (mean fit R^2 "
            << FormatDouble(r2.mean(), 2) << ")\n";
  std::cout << "Paper: spoiler latency predicted within ~8% from the MPL "
               "using a per-template linear model.\n";
  return 0;
}
