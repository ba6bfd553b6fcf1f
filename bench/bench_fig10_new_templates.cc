// Reproduces paper Figure 10: end-to-end latency prediction for new
// templates at MPL 2–5 (leave-one-template-out), with three spoiler
// sources:
//   Known Spoiler      — measured l_max (linear-time sampling);
//   KNN Spoiler        — l_max predicted by KNN from isolated statistics
//                        (constant-time sampling; full Contender);
//   Isolated Prediction— model inputs (isolated latency, I/O time, working
//                        set) themselves perturbed by a randomized +/-25%,
//                        simulating the upstream isolated-latency predictor
//                        of Akdere et al. [11]; zero sample executions.
// The memory-intensive templates (2 and 22) are excluded, extending the
// paper's exclusion of T2 (see the note in the loop).
//
// Paper shape: Known Spoiler < KNN Spoiler (~25%) < Isolated Prediction,
// with the standard deviation growing in the same order.

#include "bench_support.h"

int main(int argc, char** argv) {
  using namespace contender;
  using bench::HeldOutMre;
  using bench::MakeHeldOutView;

  Flags flags(argc, argv);
  const WorkloadSampler::Options sampling = bench::ExperimentOptions(flags);
  flags.RejectUnknown();
  bench::Experiment e = bench::CollectExperiment(sampling);
  const int n = e.workload.size();
  Rng perturb_rng(e.seed ^ 0x150);

  std::cout << "=== Figure 10: latency prediction for new templates "
               "(leave-one-out) ===\n\n";

  TablePrinter table({"MPL", "Known Spoiler", "(sd)", "KNN Spoiler", "(sd)",
                      "Isolated Prediction", "(sd)"});
  for (int mpl : {2, 3, 4, 5}) {
    std::vector<double> known, knn, isolated;
    for (int held = 0; held < n; ++held) {
      const int id = e.workload.tmpl(held).id;
      // The paper excludes its most memory-intensive template (T2): too
      // few similar templates to model its spoiler growth. On this
      // substrate both memory-bound templates (2 and 22) meet that
      // criterion, so both are excluded here.
      if (id == 2 || id == 22) continue;
      bench::HeldOutView view = MakeHeldOutView(e, {held});
      ContenderPredictor::Options opts;
      opts.mpls = {mpl};
      auto predictor = ContenderPredictor::Train(
          view.profiles, e.data.scan_times, view.observations, opts);
      if (!predictor.ok()) continue;
      const TemplateProfile& target =
          e.data.profiles[static_cast<size_t>(held)];

      auto known_mre = HeldOutMre(
          e, view, held, mpl, [&](const std::vector<int>& conc) {
            return predictor->PredictNew(target, conc,
                                         SpoilerSource::kMeasured);
          });
      if (known_mre.has_value()) known.push_back(*known_mre);

      auto knn_mre = HeldOutMre(
          e, view, held, mpl, [&](const std::vector<int>& conc) {
            return predictor->PredictNew(target, conc,
                                         SpoilerSource::kKnnPredicted);
          });
      if (knn_mre.has_value()) knn.push_back(*knn_mre);

      // Isolated Prediction: +/-25% randomized error on the isolated
      // statistics (congruent with the error of [11]).
      TemplateProfile noisy = target;
      noisy.isolated_latency =
          noisy.isolated_latency * perturb_rng.Uniform(0.75, 1.25);
      noisy.io_fraction = units::Fraction::Clamp(
          noisy.io_fraction.value() * perturb_rng.Uniform(0.75, 1.25));
      noisy.working_set_bytes =
          noisy.working_set_bytes * perturb_rng.Uniform(0.75, 1.25);
      auto iso_mre = HeldOutMre(
          e, view, held, mpl, [&](const std::vector<int>& conc) {
            return predictor->PredictNew(noisy, conc,
                                         SpoilerSource::kKnnPredicted);
          });
      if (iso_mre.has_value()) isolated.push_back(*iso_mre);
    }
    table.AddRow({std::to_string(mpl),
                  FormatPercent(Mean(known)), FormatPercent(StdDev(known)),
                  FormatPercent(Mean(knn)), FormatPercent(StdDev(knn)),
                  FormatPercent(Mean(isolated)),
                  FormatPercent(StdDev(isolated))});
  }
  table.Print(std::cout);

  std::cout << "\nPaper: KNN Spoiler ~25% for MPL 2-5, slightly above Known "
               "Spoiler; Isolated Prediction highest, with the largest "
               "standard deviation.\n";
  return 0;
}
