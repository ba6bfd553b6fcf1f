// Online prediction serving (the serve/ subsystem end-to-end): train
// Contender, stand up the PredictionService on snapshot v1, stream drifted
// latency observations into the ObservationLog, and let one deterministic
// RefitController::Step() refit the touched templates and hot-swap
// snapshot v2 — while a handle to v1 keeps answering with the old models,
// demonstrating that swaps never invalidate in-flight readers.
//
//   ./build/examples/serve_demo [--seed=42] [--template=3] [--drift=1.3]

#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "core/predictor.h"
#include "serve/refit_controller.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "workload/sampler.h"

using namespace contender;
using namespace contender::serve;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t seed = flags.Seed();
  const int target = static_cast<int>(flags.GetInt("template", 3));
  const double drift = flags.GetDouble("drift", 1.3);
  flags.RejectUnknown();
  Workload workload = Workload::Paper();
  sim::SimConfig machine;

  WorkloadSampler::Options sampling;
  sampling.seed = seed;
  WorkloadSampler sampler(&workload, machine, sampling);
  std::cout << "Training Contender...\n";
  auto data = sampler.CollectAll();
  CONTENDER_CHECK(data.ok()) << data.status();
  auto predictor = ContenderPredictor::Train(
      data->profiles, data->scan_times, data->observations, {});
  CONTENDER_CHECK(predictor.ok()) << predictor.status();

  // Serve snapshot v1 and wire the streaming-refit loop around it.
  PredictionService service(ModelSnapshot::Create(*predictor, 1));
  ObservationLog log(&service);
  RefitOptions refit_options;
  refit_options.min_new_observations = 16;
  RefitController controller(&service, &log, data->observations,
                             refit_options);

  const auto v1 = service.snapshot();
  std::cout << "Serving snapshot v" << v1->version() << " ("
            << v1->num_templates() << " templates)\n\n";

  // The production moment the paper's §6 anticipates: template `target`
  // starts running `drift`x slower than the models were trained for.
  // Stream its observed in-mix latencies into the log.
  const TemplateProfile& profile =
      data->profiles[static_cast<size_t>(target)];
  size_t streamed = 0;
  for (const MixObservation& o : data->observations) {
    if (o.primary_index != target) continue;
    MixObservation observed = o;
    observed.latency = observed.latency * drift;
    // Keep the drifted latency inside the §6.1 continuum (105% of the
    // spoiler latency); anything beyond it is excluded from QS training
    // as an outlier and would teach the refit nothing.
    auto lmax = profile.spoiler_latency.find(observed.mpl);
    if (lmax != profile.spoiler_latency.end() &&
        observed.latency > lmax->second * 1.04) {
      observed.latency = lmax->second * 1.04;
    }
    auto result = log.Ingest(observed);
    CONTENDER_CHECK(result.ok()) << result.status();
    if (++streamed == refit_options.min_new_observations) break;
  }
  std::cout << "Ingested " << streamed << " drifted observations of "
            << "template " << target << " (latency x"
            << FormatDouble(drift, 2) << "), mean |continuum residual| "
            << FormatDouble(log.pending_mean_abs_residual(), 3) << "\n";

  // One deterministic control step: drain, refit the touched templates on
  // a copy, hot-swap. Serving never pauses.
  auto step = controller.Step();
  CONTENDER_CHECK(step.ok()) << step.status();
  CONTENDER_CHECK(step->refit);
  std::cout << "Refit step: trigger="
            << (step->trigger == RefitStep::Trigger::kCount ? "count"
                                                            : "drift")
            << ", consumed " << step->observations_consumed
            << " observations, published snapshot v"
            << step->published_version << "\n\n";

  const auto v2 = service.snapshot();
  TablePrinter table({"Mix", "v1 predicts", "v2 predicts"});
  const int n = v2->num_templates();
  const std::vector<std::vector<int>> mixes = {
      {}, {(target + 1) % n}, {(target + 2) % n, (target + 5) % n}};
  for (const std::vector<int>& mix : mixes) {
    std::string label = "T" + std::to_string(target) + " + {";
    for (size_t i = 0; i < mix.size(); ++i) {
      label += (i ? "," : "") + std::to_string(mix[i]);
    }
    label += "}";
    // The retained v1 handle still answers — hot-swap freed nothing out
    // from under it — while the service routes new traffic to v2.
    auto now_served = service.Predict(target, mix);
    CONTENDER_CHECK(now_served.ok()) << now_served.status();
    CONTENDER_CHECK(*now_served == v2->PredictInMix(target, mix));
    table.AddRow({label,
                  FormatDouble(v1->PredictInMix(target, mix).value(), 1) +
                      " s",
                  FormatDouble(now_served->value(), 1) + " s"});
  }
  table.Print(std::cout);

  std::cout << "\nThe service answered " << service.served()
            << " predictions across " << service.publishes()
            << " hot-swap(s); the refit moved template " << target
            << "'s in-mix estimates toward the drifted observations while "
            << "every other template kept its exact models.\n";
  return 0;
}
