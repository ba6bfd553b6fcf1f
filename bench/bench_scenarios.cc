// The cross-stack robustness matrix: every registered workload scenario
// (src/scenario/) is pushed through the full pipeline — predictor →
// admission policies → serving degradation ladder — and the matrix
// reports, per scenario × policy, the schedule quality (makespan, p95,
// SLA misses, prediction error) plus which rung of the serve ladder
// answered the stream's predictions.
//
//   ./build/bench/bench_scenarios [--seed=42] [--requests=48] [--mpl=3]
//       [--mean_interarrival=25] [--deadline_probability=0.5]
//
// Checked invariants (--check=true, the default):
//  - greedy contention-aware beats FIFO on p95 response under EVERY
//    scenario at the default seed — non-Poisson shapes don't break the
//    predictor-driven win;
//  - AdHocNovel, answered by a predictor trained WITHOUT the held-out
//    templates' in-mix observations, drives a nonzero transferred-QS
//    (tier 1) count — the paper §6 KNN-spoiler path actually fires —
//    while PoissonSteady stays entirely on the full model (tier 0);
//  - every scenario trace is bit-identical when regenerated, when
//    regenerated with every chaos fail point armed hot, and when
//    generated concurrently from thread-pool workers.

#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "bench_support.h"
#include "scenario/scenario.h"
#include "scenario/scenarios.h"
#include "sched/metrics.h"
#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "sched/simulator.h"
#include "serve/model_snapshot.h"
#include "serve/service.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

using namespace contender;

namespace {

/// Regenerates `scenario`'s trace under chaos and from pool workers and
/// CHECKs every digest against the straight-line generation.
void CheckTraceInvariance(const scenario::Scenario& scenario,
                          const std::vector<units::Seconds>& reference,
                          const scenario::ScenarioParams& params,
                          uint64_t expected_digest) {
  auto regenerated = scenario.GenerateTrace(reference, params);
  CONTENDER_CHECK(regenerated.ok()) << regenerated.status();
  CONTENDER_CHECK(scenario::TraceDigest(regenerated->requests) ==
                  expected_digest)
      << scenario.name() << ": regeneration diverged";

  FailPointRegistry& registry = FailPointRegistry::Global();
  registry.SetRootSeed(params.seed ^ 0x5ca1ab1eULL);
  for (const std::string& site : registry.SiteNames()) {
    registry.ArmProbability(site, 0.5);
  }
  auto chaos = scenario.GenerateTrace(reference, params);
  registry.DisarmAll();
  CONTENDER_CHECK(chaos.ok()) << chaos.status();
  CONTENDER_CHECK(scenario::TraceDigest(chaos->requests) == expected_digest)
      << scenario.name() << ": chaos replay diverged";

  for (int num_threads : {2, 8}) {
    ThreadPool pool(num_threads);
    std::vector<std::future<uint64_t>> digests;
    for (int i = 0; i < num_threads; ++i) {
      digests.push_back(pool.Submit([&scenario, &reference, &params] {
        auto trace = scenario.GenerateTrace(reference, params);
        CONTENDER_CHECK(trace.ok()) << trace.status();
        return scenario::TraceDigest(trace->requests);
      }));
    }
    for (auto& digest : digests) {
      CONTENDER_CHECK(digest.get() == expected_digest)
          << scenario.name() << ": divergence at " << num_threads
          << " pool threads";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const WorkloadSampler::Options sampling = bench::ExperimentOptions(flags);
  scenario::ScenarioParams params;
  params.num_requests = static_cast<int>(flags.GetInt("requests", 48));
  params.mean_interarrival =
      units::Seconds(flags.GetDouble("mean_interarrival", 25.0));
  params.deadline_probability = flags.GetDouble("deadline_probability", 0.5);
  params.min_slack = flags.GetDouble("min_slack", 3.0);
  params.max_slack = flags.GetDouble("max_slack", 10.0);
  params.seed = sampling.seed;
  sched::ScheduleOptions schedule_options;
  schedule_options.target_mpl = static_cast<int>(flags.GetInt("mpl", 3));
  schedule_options.seed = sampling.seed;
  const bool check = flags.GetBool("check", true);
  const std::string json_path =
      flags.GetString("json", "BENCH_scenarios.json");
  flags.RejectUnknown();

  std::cout << "Training Contender on the TPC-DS-like workload...\n";
  bench::Experiment e = bench::CollectExperiment(sampling);
  auto predictor = ContenderPredictor::Train(
      e.data.profiles, e.data.scan_times, e.data.observations, {});
  CONTENDER_CHECK(predictor.ok()) << predictor.status();

  std::vector<units::Seconds> reference;
  for (const TemplateProfile& p : e.data.profiles) {
    reference.push_back(p.isolated_latency);
  }
  const int num_templates = static_cast<int>(reference.size());

  // The transfer-stressed predictor for AdHocNovel: trained with the
  // held-out slice's in-mix observations dropped, so those templates have
  // profiles (KNN features) but no reference QS models — exactly the
  // paper §6 "new template" situation. Predictions for them must descend
  // to the transferred-QS tier.
  const std::vector<int> novel =
      scenario::AdHocNovel::NovelTemplates(num_templates);
  std::vector<MixObservation> stressed_observations;
  for (const MixObservation& o : e.data.observations) {
    bool primary_is_novel = false;
    for (int t : novel) primary_is_novel |= (o.primary_index == t);
    if (!primary_is_novel) stressed_observations.push_back(o);
  }
  auto stressed_predictor = ContenderPredictor::Train(
      e.data.profiles, e.data.scan_times, stressed_observations, {});
  CONTENDER_CHECK(stressed_predictor.ok()) << stressed_predictor.status();
  std::cout << "Held out " << novel.size() << " templates' in-mix "
            << "observations for the adhoc-novel transfer stress ("
            << stressed_observations.size() << " of "
            << e.data.observations.size() << " observations kept)\n\n";

  const sched::ScheduleSimulator simulator(&e.workload, e.config);
  TablePrinter table({"Scenario", "Policy", "Makespan", "p95 resp",
                      "SLA miss", "Pred err", "Tier 0/1/2"});
  bench::Json scenario_rows = bench::Json::Array();

  for (const scenario::Scenario* s : scenario::AllScenarios()) {
    const bool is_adhoc =
        std::string(s->name()) == std::string("adhoc-novel");
    const ContenderPredictor& active =
        is_adhoc ? *stressed_predictor : *predictor;

    auto trace = s->GenerateTrace(reference, params);
    CONTENDER_CHECK(trace.ok()) << trace.status();
    const uint64_t digest = scenario::TraceDigest(trace->requests);
    CheckTraceInvariance(*s, reference, params, digest);

    // Serve pass: the stream's predictions answered by the degradation
    // ladder, with a rolling 2-deep preview mix (the admission
    // controller's view just before each request lands).
    auto snapshot = serve::ModelSnapshot::Create(active, /*version=*/1);
    serve::PredictionService service(snapshot);
    std::vector<serve::PredictRequest> batch;
    batch.reserve(trace->requests.size());
    for (size_t i = 0; i < trace->requests.size(); ++i) {
      serve::PredictRequest request;
      request.template_index = trace->requests[i].template_index;
      for (size_t back = 1; back <= 2 && back <= i; ++back) {
        request.concurrent.push_back(
            trace->requests[i - back].template_index);
      }
      batch.push_back(std::move(request));
    }
    const std::vector<serve::PredictResult> answers =
        service.PredictBatch(batch);
    for (const serve::PredictResult& answer : answers) {
      CONTENDER_CHECK(answer.status.ok()) << answer.status;
    }
    const uint64_t tier_full =
        service.tier_count(serve::DegradationTier::kFullModel);
    const uint64_t tier_transfer =
        service.tier_count(serve::DegradationTier::kTransferredQs);
    const uint64_t tier_isolated =
        service.tier_count(serve::DegradationTier::kIsolatedHeuristic);

    sched::MixOracle oracle(&active);
    sched::ScheduleMetrics fifo_metrics;
    sched::ScheduleMetrics greedy_metrics;
    bench::Json policy_rows = bench::Json::Array();
    for (sched::PolicyKind kind : sched::AllPolicyKinds()) {
      auto policy = sched::MakePolicy(kind);
      auto result = simulator.Run(trace->requests, policy.get(), &oracle,
                                  schedule_options);
      CONTENDER_CHECK(result.ok()) << s->name() << "/" << policy->name()
                                   << ": " << result.status();
      const sched::ScheduleMetrics m = sched::ComputeScheduleMetrics(*result);
      if (kind == sched::PolicyKind::kFifo) fifo_metrics = m;
      if (kind == sched::PolicyKind::kGreedyContention) greedy_metrics = m;
      table.AddRow({s->name(), policy->name(),
                    FormatDouble(m.makespan.value(), 0) + " s",
                    FormatDouble(m.p95_response.value(), 0) + " s",
                    FormatPercent(m.sla_miss_rate, 0),
                    FormatPercent(m.mean_prediction_error, 1),
                    std::to_string(tier_full) + "/" +
                        std::to_string(tier_transfer) + "/" +
                        std::to_string(tier_isolated)});
      policy_rows.Append(
          bench::Json::Object()
              .Set("policy", policy->name())
              .Set("makespan_s", m.makespan.value())
              .Set("p95_response_s", m.p95_response.value())
              .Set("p99_response_s", m.p99_response.value())
              .Set("sla_miss_rate", m.sla_miss_rate)
              .Set("mean_prediction_error", m.mean_prediction_error));
    }

    if (check) {
      CONTENDER_CHECK(greedy_metrics.p95_response <
                      fifo_metrics.p95_response)
          << "greedy-contention lost on p95 under " << s->name();
      if (is_adhoc) {
        CONTENDER_CHECK(tier_transfer > 0)
            << "adhoc-novel failed to reach the transferred-QS tier";
      }
      if (std::string(s->name()) ==
          std::string(scenario::kPoissonSteadyName)) {
        CONTENDER_CHECK(tier_transfer == 0 && tier_isolated == 0)
            << "poisson-steady degraded off the full model";
      }
    }

    bench::Json stats = bench::Json::Object();
    for (const auto& [key, value] : trace->stats) {
      stats.Set(key, value);
    }
    scenario_rows.Append(
        bench::Json::Object()
            .Set("scenario", s->name())
            .Set("description", s->description())
            .Set("trace_digest", digest)
            .Set("oracle_fallbacks", oracle.fallbacks())
            .Set("serve_tier_counts",
                 bench::Json::Object()
                     .Set("full_model", tier_full)
                     .Set("transferred_qs", tier_transfer)
                     .Set("isolated_heuristic", tier_isolated))
            .Set("trace_stats", stats)
            .Set("policies", policy_rows));
  }
  table.Print(std::cout);

  if (check) {
    std::cout << "\nChecked: greedy contention-aware beats FIFO on p95 "
                 "under every scenario; adhoc-novel exercises the "
                 "transferred-QS tier while poisson-steady stays on the "
                 "full model; every trace is bit-identical under chaos "
                 "replay and across pool widths.\n";
  }

  bench::Json root = bench::Json::Object();
  root.Set("bench", "scenarios")
      .Set("seed", e.seed)
      .Set("requests", static_cast<uint64_t>(params.num_requests))
      .Set("mean_interarrival_s", params.mean_interarrival.value())
      .Set("deadline_probability", params.deadline_probability)
      .Set("target_mpl", schedule_options.target_mpl)
      .Set("held_out_templates", static_cast<uint64_t>(novel.size()))
      .Set("scenarios", scenario_rows);
  bench::WriteJsonFile(json_path, root);
  std::cout << "Wrote " << json_path << "\n";
  return 0;
}
