// Reproduces paper Figure 7: per-template relative error of the CQI-based
// QS model at MPL 4 for known templates (k-fold cross-validation).
//
// Paper shape: ~19% on average; extremely I/O-bound templates (26, 33, 61,
// 71) within ~10%; random-I/O templates (17, 25, 32) around 23%; the
// memory-intensive templates (2, 22) worst.

#include "bench_support.h"

int main(int argc, char** argv) {
  using namespace contender;

  Flags flags(argc, argv);
  const int mpl = static_cast<int>(flags.GetInt("mpl", 4));
  const WorkloadSampler::Options sampling = bench::ExperimentOptions(flags);
  flags.RejectUnknown();
  bench::Experiment e = bench::CollectExperiment(sampling);

  std::cout << "=== Figure 7: per-template prediction error at MPL " << mpl
            << " (CQI-only model) ===\n\n";

  TablePrinter table({"Template", "MRE", "p_t", "Working set (MB)"});
  SummaryStats avg;
  std::vector<std::pair<int, double>> rows;
  for (size_t t = 0; t < e.data.profiles.size(); ++t) {
    auto mre = bench::KFoldQsMre(e, static_cast<int>(t), mpl,
                                 CqiVariant::kFull);
    if (!mre.has_value()) continue;
    avg.Add(*mre);
    rows.emplace_back(static_cast<int>(t), *mre);
  }
  table.AddRow({"Avg", FormatPercent(avg.mean()), "", ""});
  for (const auto& [t, mre] : rows) {
    const TemplateProfile& p = e.data.profiles[static_cast<size_t>(t)];
    table.AddRow({"q" + std::to_string(p.template_id), FormatPercent(mre),
                  FormatDouble(p.io_fraction.value(), 2),
                  FormatDouble(p.working_set_bytes.value() / 1e6, 0)});
  }
  table.Print(std::cout);

  // The paper's per-class observations.
  auto class_mean = [&](std::initializer_list<int> ids) {
    SummaryStats s;
    for (const auto& [t, mre] : rows) {
      const int id = e.data.profiles[static_cast<size_t>(t)].template_id;
      for (int want : ids) {
        if (id == want) s.Add(mre);
      }
    }
    return s.mean();
  };
  std::cout << "\nI/O-bound (26, 33, 61, 71):    "
            << FormatPercent(class_mean({26, 33, 61, 71})) << "\n";
  std::cout << "Random I/O (17, 25, 32):       "
            << FormatPercent(class_mean({17, 25, 32})) << "\n";
  std::cout << "Memory-intensive (2, 22):      "
            << FormatPercent(class_mean({2, 22})) << "\n";
  std::cout << "\nPaper: avg ~19%; I/O-bound <= 10%; random I/O ~23%; "
               "memory-intensive highest.\n";
  return 0;
}
