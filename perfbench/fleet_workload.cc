// The fleet workloads: about 10k requests through a 4-node fleet at MPL 3
// with contention-aware routing.
//
//   fleet-burst   flash-crowd arrivals at ~4 s mean interarrival under the
//                 adaptive overload stack (door CoDel + brownout, node AIMD
//                 + CoDel) as bench_overload configures it: deep backlogs,
//                 so routing, door decisions and the oracle do real work.
//   fleet-steady  poisson-steady arrivals ~200 s apart with overload
//                 control off: nodes rarely queue, so nearly all the time
//                 is spent in each node's sim::Engine.
//
// An untraced pass is FleetSimulator::Run plus ComputeFleetMetrics. A
// traced pass replays Run's two passes from the public pieces (Router,
// Node, ComputeNodeBlame) with a span around each call, and must produce
// the same outcomes bit for bit.

#include <algorithm>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet_simulator.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "overload/shed_reason.h"
#include "perfbench.h"
#include "scenario/scenario.h"
#include "sim/run_cache.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using contender::StatusOr;
using contender::fleet::Assignment;
using contender::fleet::ComputeFleetMetrics;
using contender::fleet::ComputeNodeBlame;
using contender::fleet::FleetMetrics;
using contender::fleet::FleetNodeSummary;
using contender::fleet::FleetOptions;
using contender::fleet::FleetQueryOutcome;
using contender::fleet::FleetResult;
using contender::fleet::Node;
using contender::fleet::NodeOptions;
using contender::fleet::NodeResult;
using contender::fleet::Population;
using contender::fleet::QueryBlame;
using contender::fleet::Router;
using contender::fleet::RouterOptions;
using contender::sched::MixOracle;
using contender::sched::Request;

constexpr int kRequests = 10000;

struct FleetShape {
  const char* scenario;
  double mean_interarrival_s;
  bool adaptive_overload;
};

FleetShape ShapeFor(const std::string& workload) {
  if (workload == "fleet-burst") return {"flash-crowd", 4.0, true};
  return {"poisson-steady", 200.0, false};
}

FleetOptions MakeOptions(const FleetShape& shape, uint64_t seed,
                         int threads) {
  FleetOptions options;
  options.num_nodes = 4;
  options.target_mpl = 3;
  options.seed = seed;
  options.threads = threads;
  if (shape.adaptive_overload) {
    // bench_overload's "adaptive" regime.
    options.door.enabled = true;
    options.door.codel.target = contender::units::Seconds(15.0);
    options.door.codel.interval = contender::units::Seconds(45.0);
    options.door.brownout.enter_pressure = 2.0;
    options.door.brownout.exit_pressure = 0.75;
    options.door.brownout.rung_streak = 8;
    options.node_overload.adaptive_limit = true;
    options.node_overload.limiter.max_limit = options.target_mpl;
    options.node_overload.codel_shed = true;
    options.node_overload.codel.target = contender::units::Seconds(30.0);
    options.node_overload.codel.interval = contender::units::Seconds(90.0);
  }
  return options;
}

uint64_t FleetDigest(const FleetResult& result) {
  contender::sim::RunHasher hasher;
  hasher.Add(result.makespan.value());
  for (const FleetQueryOutcome& out : result.outcomes) {
    hasher.Add(out.node);
    hasher.Add(out.rejected);
    hasher.Add(out.shed);
    hasher.Add(static_cast<int>(out.shed_reason));
    hasher.Add(out.completed);
    hasher.Add(out.completion_time.value());
    hasher.Add(out.response_time.value());
  }
  return hasher.Digest();
}

struct OracleCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

struct NodeRun {
  NodeResult result;
  std::vector<QueryBlame> blame;
  FleetNodeSummary summary;
};

// FleetSimulator::Run for a fleet without drains or a health signal,
// rebuilt from the layers' public entry points so each call can carry a
// span. Also reads the router's oracle, which Run keeps private.
StatusOr<FleetResult> TracedRun(const Setup& setup,
                                const Population& population,
                                const FleetOptions& options,
                                OracleCounts* counts) {
  const contender::ContenderPredictor* predictor = &*setup.predictor;
  MixOracle routing_oracle(predictor, options.oracle_options);
  RouterOptions router_options;
  router_options.num_nodes = options.num_nodes;
  router_options.target_mpl = options.target_mpl;
  router_options.policy = options.policy;
  router_options.tenant_quota = options.tenant_quota;
  router_options.door = options.door;
  Router router(&routing_oracle, router_options);
  for (const Request& request : population.requests) {
    const ScopedSpan span(SpanName::kRoute);
    CONTENDER_RETURN_IF_ERROR(router.Route(request).status());
  }

  const std::vector<Assignment>& assignments = router.assignments();
  std::vector<std::vector<Request>> per_node(
      static_cast<size_t>(options.num_nodes));
  for (size_t id = 0; id < assignments.size(); ++id) {
    if (assignments[id].rejected) continue;
    Request request = population.requests[id];
    request.arrival_time = assignments[id].effective_arrival;
    per_node[static_cast<size_t>(assignments[id].node)].push_back(request);
  }

  contender::Rng root(options.seed);
  std::vector<uint64_t> node_seeds;
  for (int i = 0; i < options.num_nodes; ++i) {
    node_seeds.push_back(root.Next());
  }
  contender::ThreadPool pool(options.threads);
  std::vector<std::future<StatusOr<NodeRun>>> futures;
  for (int i = 0; i < options.num_nodes; ++i) {
    futures.push_back(pool.Submit([&, i]() -> StatusOr<NodeRun> {
      NodeOptions node_options;
      node_options.node_id = i;
      node_options.target_mpl = options.target_mpl;
      node_options.policy = options.node_policy;
      node_options.seed = node_seeds[static_cast<size_t>(i)];
      node_options.oracle_options = options.oracle_options;
      node_options.overload = options.node_overload;
      Node node(&setup.workload, setup.config, predictor, node_options);
      const std::vector<Request>& stream = per_node[static_cast<size_t>(i)];
      NodeRun run;
      {
        const ScopedSpan span(SpanName::kExec, stream.size());
        CONTENDER_ASSIGN_OR_RETURN(run.result, node.Run(stream));
      }
      {
        const ScopedSpan span(SpanName::kBlame);
        run.blame = ComputeNodeBlame(run.result, node.oracle());
      }
      run.summary.node_id = i;
      run.summary.requests = run.result.schedule.outcomes.size();
      run.summary.makespan = run.result.schedule.makespan;
      run.summary.oracle_hits = node.oracle().hits();
      run.summary.oracle_misses = node.oracle().misses();
      run.summary.oracle_degradations = node.oracle().degradations();
      run.summary.queue_sheds = run.result.schedule.queue_sheds;
      run.summary.final_admission_limit =
          run.result.schedule.final_admission_limit;
      run.summary.limit_decreases = run.result.schedule.limit_decreases;
      return run;
    }));
  }

  FleetResult fleet;
  fleet.router = router.stats();
  fleet.door = router.door_stats();
  fleet.outcomes.resize(population.requests.size());
  for (size_t id = 0; id < population.requests.size(); ++id) {
    FleetQueryOutcome& out = fleet.outcomes[id];
    out.request = population.requests[id];
    out.node = assignments[id].node;
    out.rejected = assignments[id].rejected;
    out.shed_reason = assignments[id].shed_reason;
    out.failed_over = assignments[id].failed_over;
    out.degraded_route = assignments[id].degraded;
  }
  for (std::future<StatusOr<NodeRun>>& future : futures) {
    NodeRun run;
    CONTENDER_ASSIGN_OR_RETURN(run, future.get());
    for (size_t local = 0; local < run.result.schedule.outcomes.size();
         ++local) {
      const contender::sched::RequestOutcome& outcome =
          run.result.schedule.outcomes[local];
      FleetQueryOutcome& out = fleet.outcomes[static_cast<size_t>(
          run.result.global_ids[local])];
      if (outcome.shed) {
        out.shed = true;
        out.shed_reason = outcome.shed_reason;
        out.queue_wait = outcome.queue_wait;
        continue;
      }
      out.completed = outcome.completed;
      out.admit_time = outcome.admit_time;
      out.execution_latency = outcome.execution_latency;
      out.completion_time = outcome.completion_time;
      out.predicted_latency = outcome.predicted_latency;
      out.missed_deadline = outcome.missed_deadline;
      out.queue_wait = outcome.admit_time - out.request.arrival_time;
      out.response_time = outcome.completion_time - out.request.arrival_time;
    }
    fleet.makespan = std::max(fleet.makespan, run.result.schedule.makespan);
    fleet.blame.insert(fleet.blame.end(), run.blame.begin(), run.blame.end());
    fleet.nodes.push_back(run.summary);
    counts->hits += run.summary.oracle_hits;
    counts->misses += run.summary.oracle_misses;
  }
  std::sort(fleet.blame.begin(), fleet.blame.end(),
            [](const QueryBlame& a, const QueryBlame& b) {
              return a.request_id < b.request_id;
            });
  counts->hits += routing_oracle.hits();
  counts->misses += routing_oracle.misses();
  return fleet;
}

}  // namespace

void RunFleet(const RunConfig& config, const Setup& setup, Report* report) {
  const FleetShape shape = ShapeFor(config.workload);
  const contender::scenario::Scenario* scenario =
      contender::scenario::FindScenario(shape.scenario);
  CONTENDER_CHECK(scenario != nullptr) << shape.scenario;

  std::vector<contender::units::Seconds> reference;
  for (const contender::TemplateProfile& p : setup.data.profiles) {
    reference.push_back(p.isolated_latency);
  }
  contender::fleet::PopulationOptions population_options;
  population_options.num_tenants = 6;
  population_options.num_requests = kRequests;
  population_options.mean_interarrival =
      contender::units::Seconds(shape.mean_interarrival_s);
  population_options.skew = 1.0;
  population_options.templates_per_tenant = 10;
  population_options.deadline_probability = 0.6;
  population_options.min_slack = 3.0;
  population_options.max_slack = 10.0;
  population_options.seed = config.seed;
  auto population =
      GeneratePopulation(reference, population_options, *scenario);
  CONTENDER_CHECK(population.ok()) << population.status();
  const uint64_t offered = population->requests.size();

  const FleetOptions options = MakeOptions(shape, config.seed, config.threads);
  const contender::fleet::FleetSimulator simulator(
      &setup.workload, setup.config, &*setup.predictor);

  std::optional<FleetMetrics> metrics;
  std::vector<double> run_s;
  std::optional<uint64_t> first_digest;
  auto check = [&](const StatusOr<FleetResult>& result, const char* what) {
    report->ops += offered;
    if (!result.ok()) {
      report->ops_failed += offered;
      report->failures.push_back(std::string(what) + ": " +
                                 result.status().ToString());
      return false;
    }
    const uint64_t digest = FleetDigest(*result);
    if (!first_digest.has_value()) {
      first_digest = digest;
      report->digest = digest;
    }
    if (digest != *first_digest) {
      report->ops_failed += offered;
      report->failures.push_back(std::string(what) +
                                 ": outcomes differ from the first pass");
      return false;
    }
    return true;
  };

  OracleCounts oracle;
  const int min_passes = config.trace ? 2 : 3;
  RepeatPasses(config, min_passes, report, [&](int n) {
    if (config.trace && n % 2 == 1) {
      OracleCounts counts;
      SetTracing(true);
      const int64_t start = NowNs();
      auto result = TracedRun(setup, *population, options, &counts);
      if (result.ok()) {
        const ScopedSpan span(SpanName::kMetrics);
        ComputeFleetMetrics(*result);
      }
      const int64_t end = NowNs();
      SetTracing(false);
      report->traced_pass_s.push_back(static_cast<double>(end - start) *
                                      1e-9);
      report->profiles.push_back(Profile(Collect(), start, end));
      if (check(result, "traced pass")) oracle = counts;
      return;
    }
    const int64_t start = NowNs();
    auto result = simulator.Run(*population, options);
    const int64_t ran = NowNs();
    if (result.ok()) metrics = ComputeFleetMetrics(*result);
    const int64_t end = NowNs();
    if (check(result, "pass")) {
      run_s.push_back(static_cast<double>(ran - start) * 1e-9);
      report->pass_s.push_back(static_cast<double>(end - start) * 1e-9);
    }
  });

  // The execution pass fans out over the pool; one serial replay must not
  // notice.
  FleetOptions serial = options;
  serial.threads = 1;
  check(simulator.Run(*population, serial), "threads=1 replay");

  if (!metrics.has_value() || run_s.empty()) return;
  const FleetMetrics& m = *metrics;
  if (m.offered != m.completed + m.shed_total ||
      m.admitted != m.completed + m.node_sheds) {
    report->failures.push_back("fleet conservation ledger does not balance");
  }
  auto& figures = report->figures;
  figures["fleet_req_per_s"] = {static_cast<double>(offered) / Median(run_s),
                                "1/s"};
  figures["fleet_ontime_ratio"] = {
      static_cast<double>(m.good_completions) / static_cast<double>(offered),
      "ratio"};
  figures["fleet_p95_response_s"] = {m.p95_response.value(), "s"};
  figures["fleet_completed"] = {static_cast<double>(m.completed), "count"};
  for (contender::overload::ShedReason reason :
       contender::overload::AllShedReasons()) {
    auto it = m.shed_by_reason.find(reason);
    figures[std::string("fleet_shed.") +
            contender::overload::ShedReasonName(reason)] = {
        static_cast<double>(it == m.shed_by_reason.end() ? 0 : it->second),
        "count"};
  }

  auto& counts = report->layer_counts;
  counts["overload.door_shed_ratio"] =
      static_cast<double>(m.rejected) / static_cast<double>(offered);
  counts["overload.node_sheds"] = static_cast<double>(m.node_sheds);
  if (config.trace) {
    const uint64_t probes = oracle.hits + oracle.misses;
    counts["sched.oracle_probes_per_req"] =
        static_cast<double>(probes) / static_cast<double>(offered);
    counts["sched.oracle_hit_rate"] =
        probes == 0 ? 0.0
                    : static_cast<double>(oracle.hits) /
                          static_cast<double>(probes);
  }
}

}  // namespace perfbench
