// Reproduces paper Figure 8: latency MRE at MPL 2–5 for
//   Known-Templates : per-template QS models, k-fold CV over mixes;
//   Unknown-Y       : new template keeps its measured slope, intercept
//                     transferred from the slope (Fig. 4 relationship);
//   Unknown-QS      : full Contender transfer — slope regressed from
//                     isolated latency, intercept from slope.
// New-template evaluation uses 5-fold cross-validation over templates
// (train on 20, predict the held-out 5), as in §6.3.
//
// Paper values: Known 19%, Unknown-Y 23%, Unknown-QS 25% on average.

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

  std::cout << "=== Figure 8: latency MRE for known and unknown templates "
               "===\n\n";

  // Template folds (k = 5).
  Rng fold_rng(e.seed ^ 0xf01d);
  std::vector<int> order = fold_rng.Permutation(n);
  std::vector<std::vector<int>> folds(5);
  for (int i = 0; i < n; ++i) folds[static_cast<size_t>(i % 5)].push_back(order[static_cast<size_t>(i)]);

  // Own-slope models (for Unknown-Y) from the full data.
  std::map<int, std::map<int, QsModel>> own_models;  // mpl -> template -> QS
  for (int mpl : {2, 3, 4, 5}) {
    auto models = FitReferenceModels(e.data.profiles, e.data.scan_times,
                                     e.data.observations, units::Mpl(mpl));
    CONTENDER_CHECK(models.ok());
    own_models[mpl] = std::move(*models);
  }

  TablePrinter table({"MPL", "Known-Templates", "Unknown-Y", "Unknown-QS",
                      "Unknown-QS*"});
  SummaryStats known_all, unky_all, unkqs_all, unkqs2_all;
  for (int mpl : {2, 3, 4, 5}) {
    // Known templates: k-fold CV within each template's observations.
    SummaryStats known;
    for (int t = 0; t < n; ++t) {
      auto mre = bench::KFoldQsMre(e, t, mpl, CqiVariant::kFull);
      if (mre.has_value()) known.Add(*mre);
    }

    // Unknown templates: leave-fold-out transfer.
    SummaryStats unknown_y, unknown_qs, unknown_qs2;
    for (const std::vector<int>& held_fold : folds) {
      bench::HeldOutView view = MakeHeldOutView(e, held_fold);
      ContenderPredictor::Options opts;
      opts.mpls = {mpl};
      auto predictor = ContenderPredictor::Train(
          view.profiles, e.data.scan_times, view.observations, opts);
      if (!predictor.ok()) continue;
      // Ablation: slope transferred from inverse spoiler slowdown.
      ContenderPredictor::Options opts2 = opts;
      opts2.transfer_feature = TransferFeature::kInverseSpoilerSlowdown;
      auto predictor2 = ContenderPredictor::Train(
          view.profiles, e.data.scan_times, view.observations, opts2);
      if (!predictor2.ok()) continue;

      for (int held : held_fold) {
        const TemplateProfile& target =
            e.data.profiles[static_cast<size_t>(held)];
        // Unknown-QS: full transfer through the predictor.
        auto qs_mre = HeldOutMre(
            e, view, held, mpl, [&](const std::vector<int>& conc) {
              return predictor->PredictNew(target, conc,
                                           SpoilerSource::kMeasured);
            });
        if (qs_mre.has_value()) unknown_qs.Add(*qs_mre);
        auto qs2_mre = HeldOutMre(
            e, view, held, mpl, [&](const std::vector<int>& conc) {
              return predictor2->PredictNew(target, conc,
                                            SpoilerSource::kMeasured);
            });
        if (qs2_mre.has_value()) unknown_qs2.Add(*qs2_mre);
        // Unknown-Y: own measured slope, transferred intercept.
        auto own_it = own_models[mpl].find(held);
        if (own_it == own_models[mpl].end()) continue;
        const double own_slope = own_it->second.slope;
        auto y_mre = HeldOutMre(
            e, view, held, mpl, [&](const std::vector<int>& conc) {
              return predictor->PredictNewWithKnownSlope(
                  target, conc, own_slope, SpoilerSource::kMeasured);
            });
        if (y_mre.has_value()) unknown_y.Add(*y_mre);
      }
    }
    known_all.Add(known.mean());
    unky_all.Add(unknown_y.mean());
    unkqs_all.Add(unknown_qs.mean());
    unkqs2_all.Add(unknown_qs2.mean());
    table.AddRow({std::to_string(mpl), FormatPercent(known.mean()),
                  FormatPercent(unknown_y.mean()),
                  FormatPercent(unknown_qs.mean()),
                  FormatPercent(unknown_qs2.mean())});
  }
  table.AddRow({"Avg", FormatPercent(known_all.mean()),
                FormatPercent(unky_all.mean()),
                FormatPercent(unkqs_all.mean()),
                FormatPercent(unkqs2_all.mean())});
  table.Print(std::cout);

  std::cout << "\nPaper: Known 19%, Unknown-Y 23%, Unknown-QS 25%.\n"
               "Expected shape: Known <= Unknown-Y <= Unknown-QS (transfer "
               "adds error).\n"
               "Unknown-QS* is a library ablation: the slope transferred "
               "from inverse spoiler slowdown (1/(lmax/lmin - 1)) instead "
               "of isolated latency; on the simulated substrate this "
               "feature tracks sensitivity better (see Table 3 bench).\n";
  return 0;
}
