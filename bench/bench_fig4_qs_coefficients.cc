// Reproduces paper Figure 4: the linear relationship between the QS model
// coefficients (slope µ and y-intercept b) across templates at MPL 2.
//
// Paper shape: the coefficients lie close to a common trend line, so one
// can be predicted from the other — the basis of the Unknown-QS transfer.

#include "bench_support.h"

#include "math/regression.h"

int main(int argc, char** argv) {
  using namespace contender;

  Flags flags(argc, argv);
  const int mpl = static_cast<int>(flags.GetInt("mpl", 2));
  const WorkloadSampler::Options sampling = bench::ExperimentOptions(flags);
  flags.RejectUnknown();
  bench::Experiment e = bench::CollectExperiment(sampling);

  auto models = FitReferenceModels(e.data.profiles, e.data.scan_times,
                                   e.data.observations, units::Mpl(mpl));
  CONTENDER_CHECK(models.ok()) << models.status();

  std::cout << "=== Figure 4: QS coefficient relationship (MPL " << mpl
            << ") ===\n\n";
  TablePrinter table({"Template", "Slope u", "Y-intercept b", "Fit R^2"});
  std::vector<double> slopes, intercepts;
  for (const auto& [t, m] : *models) {
    const TemplateProfile& p = e.data.profiles[static_cast<size_t>(t)];
    table.AddRow({"q" + std::to_string(p.template_id),
                  FormatDouble(m.slope, 3), FormatDouble(m.intercept, 3),
                  FormatDouble(m.r_squared, 2)});
    slopes.push_back(m.slope);
    intercepts.push_back(m.intercept);
  }
  table.Print(std::cout);

  auto trend = FitSimpleLinear(slopes, intercepts);
  CONTENDER_CHECK(trend.ok());
  std::cout << "\nTrend line: b = " << FormatDouble(trend->slope, 3)
            << " * u + " << FormatDouble(trend->intercept, 3)
            << "   (R^2 = " << FormatDouble(trend->r_squared, 2)
            << ", Pearson r = "
            << FormatDouble(PearsonCorrelation(slopes, intercepts), 2)
            << ")\n";
  std::cout << "Paper shape: coefficients strongly linearly related; "
               "sensitive (high-slope) templates have lower intercepts.\n";
  return 0;
}
