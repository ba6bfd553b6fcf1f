// Quickstart: train Contender on a known analytical workload and predict
// concurrent query latency — for known templates and for a new, never
// sampled template.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--seed=42]

#include <iostream>

#include "core/predictor.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "workload/sampler.h"
#include "workload/steady_state.h"

using namespace contender;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t seed = flags.Seed();
  flags.RejectUnknown();

  // 1. The workload: a TPC-DS-like catalog with 25 query templates, and
  //    the simulated 8-core / 8 GB / single-disk machine.
  Workload workload = Workload::Paper();
  sim::SimConfig machine;

  // 2. Training: isolated profiles, spoiler latencies, fact-scan times,
  //    and steady-state mix samples (all pairs at MPL 2, LHS above).
  std::cout << "Collecting training data (simulated sampling)...\n";
  WorkloadSampler::Options sampling;
  sampling.seed = seed;
  WorkloadSampler sampler(&workload, machine, sampling);
  auto data = sampler.CollectAll();
  CONTENDER_CHECK(data.ok()) << data.status();
  std::cout << "  " << data->profiles.size() << " templates profiled, "
            << data->observations.size() << " mix observations, "
            << FormatDouble(data->sampling_seconds.value() / 3600.0, 1)
            << " simulated hours of sampling\n\n";

  // 3. Train the predictor.
  auto predictor = ContenderPredictor::Train(
      data->profiles, data->scan_times, data->observations,
      ContenderPredictor::Options{});
  CONTENDER_CHECK(predictor.ok()) << predictor.status();

  // 4. Predict latency for a known template in a few mixes and compare
  //    against fresh steady-state executions.
  const int q71 = workload.IndexOfId(71);  // I/O-bound primary
  TablePrinter table({"Mix (primary q71 with ...)", "Predicted", "Observed",
                      "Error"});
  Rng rng(seed + 1);
  for (std::vector<int> partners :
       {std::vector<int>{workload.IndexOfId(26)},
        std::vector<int>{workload.IndexOfId(33)},  // shares all fact scans
        std::vector<int>{workload.IndexOfId(17), workload.IndexOfId(62)}}) {
    auto predicted = predictor->PredictKnown(q71, partners);
    CONTENDER_CHECK(predicted.ok()) << predicted.status();

    std::vector<int> mix = {q71};
    std::string label = "q71 + {";
    for (size_t i = 0; i < partners.size(); ++i) {
      mix.push_back(partners[i]);
      label += (i ? ", q" : "q") +
               std::to_string(workload.tmpl(partners[i]).id);
    }
    label += "}";
    SteadyStateOptions ss;
    ss.seed = rng.Next();
    auto observed = RunSteadyState(workload, mix, machine, ss);
    CONTENDER_CHECK(observed.ok()) << observed.status();
    const double actual = observed->streams[0].mean_latency;
    table.AddRow({label, FormatDouble(predicted->value(), 0) + " s",
                  FormatDouble(actual, 0) + " s",
                  FormatPercent(std::abs(actual - predicted->value()) / actual)});
  }
  table.Print(std::cout);

  // 5. Ad-hoc template: pretend q46 was never part of the workload.
  //    Contender needs only its isolated run (constant-time sampling) —
  //    the spoiler latency comes from the KNN model.
  std::cout << "\nAd-hoc template demo (q46 as a never-sampled query):\n";
  const TemplateProfile& q46 = data->profiles[static_cast<size_t>(
      workload.IndexOfId(46))];
  TemplateProfile adhoc = q46;
  adhoc.spoiler_latency.clear();  // only the isolated run is available
  auto adhoc_pred = predictor->PredictNew(
      adhoc, {workload.IndexOfId(27)}, SpoilerSource::kKnnPredicted);
  CONTENDER_CHECK(adhoc_pred.ok()) << adhoc_pred.status();
  std::cout << "  predicted latency of ad-hoc q46 running with q27: "
            << FormatDouble(adhoc_pred->value(), 0) << " s (isolated: "
            << FormatDouble(adhoc.isolated_latency.value(), 0) << " s)\n";
  return 0;
}
