// Cluster-scale fleet demo: a 4-node fleet serving a multi-tenant
// open-loop population under contention-aware routing, with one node
// draining mid-run (its predicted backlog fails over to the survivors)
// and a per-tenant blame ledger at the end — who lost seconds to
// contention, who inflicted them, and what each tenant kept as self
// blame. Everything interesting lives in src/fleet/; this file wires a
// workload to it and prints the story.
//
//   ./build/examples/fleet_demo [--seed=42] [--requests=64]
//       [--tenants=4] [--skew=1.0] [--mpl=3] [--mean_interarrival=20]
//       [--scenario=poisson-steady]
//
// --scenario selects any registered workload scenario (src/scenario/)
// to drive the population; --scenario=list prints the registry.

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/predictor.h"
#include "fleet/fleet_simulator.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/router.h"
#include "scenario/scenario.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "workload/sampler.h"

using namespace contender;
using namespace contender::fleet;

namespace {

/// Resolves --scenario, printing the registry and exiting on "list" or an
/// unknown name so the flag is self-documenting.
const scenario::Scenario& ResolveScenario(const std::string& name) {
  const scenario::Scenario* selected = scenario::FindScenario(name);
  if (selected != nullptr) return *selected;
  std::ostream& out = (name == "list") ? std::cout : std::cerr;
  if (name != "list") {
    out << "Unknown scenario '" << name << "'.\n";
  }
  out << "Registered scenarios:\n";
  for (const scenario::Scenario* s : scenario::AllScenarios()) {
    out << "  " << s->name() << " — " << s->description() << "\n";
  }
  std::exit(name == "list" ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string scenario_name =
      flags.GetString("scenario", "poisson-steady");
  const uint64_t seed = flags.Seed();
  PopulationOptions population_options;
  population_options.num_tenants =
      static_cast<int>(flags.GetInt("tenants", 4));
  population_options.num_requests =
      static_cast<int>(flags.GetInt("requests", 64));
  population_options.mean_interarrival =
      units::Seconds(flags.GetDouble("mean_interarrival", 20.0));
  population_options.skew = flags.GetDouble("skew", 1.0);
  population_options.templates_per_tenant = 10;
  population_options.deadline_probability = 0.6;
  population_options.seed = seed;
  const int target_mpl = static_cast<int>(flags.GetInt("mpl", 3));
  flags.RejectUnknown();
  const scenario::Scenario& scenario_choice = ResolveScenario(scenario_name);
  Workload workload = Workload::Paper();
  sim::SimConfig machine;

  WorkloadSampler::Options sampling;
  sampling.seed = seed;
  WorkloadSampler sampler(&workload, machine, sampling);
  std::cout << "Training Contender...\n";
  auto data = sampler.CollectAll();
  CONTENDER_CHECK(data.ok()) << data.status();
  auto predictor = ContenderPredictor::Train(
      data->profiles, data->scan_times, data->observations,
      ContenderPredictor::Options{});
  CONTENDER_CHECK(predictor.ok()) << predictor.status();

  std::vector<units::Seconds> reference;
  for (const TemplateProfile& p : data->profiles) {
    reference.push_back(p.isolated_latency);
  }

  auto population =
      GeneratePopulation(reference, population_options, scenario_choice);
  CONTENDER_CHECK(population.ok()) << population.status();
  std::cout << "Scenario: " << scenario_choice.name() << " — "
            << scenario_choice.description() << "\n";

  // Drain node 1 when the stream is halfway in: its predicted backlog
  // fails over through the live policy and new work avoids it.
  const sched::Request& midpoint =
      population->requests[population->requests.size() / 2];
  FleetOptions options;
  options.num_nodes = 4;
  options.target_mpl = target_mpl;
  options.policy = RoutePolicy::kContentionAware;
  options.seed = seed;
  options.threads = 0;  // all cores; results are thread-count invariant
  options.drains.push_back(ScheduledDrain{1, midpoint.arrival_time});

  FleetSimulator simulator(&workload, machine, &*predictor);
  auto result = simulator.Run(*population, options);
  CONTENDER_CHECK(result.ok()) << result.status();
  const FleetMetrics m = ComputeFleetMetrics(*result);

  std::cout << "\nFleet of " << options.num_nodes << " nodes, "
            << RoutePolicyName(options.policy) << " routing; node 1 "
            << "drains at t=" << FormatDouble(midpoint.arrival_time.value(), 0)
            << " s (" << m.failovers << " failover"
            << (m.failovers == 1 ? "" : "s") << ").\n\n";

  TablePrinter nodes({"Node", "Requests", "Makespan", "State"});
  for (const FleetNodeSummary& node : result->nodes) {
    nodes.AddRow({std::to_string(node.node_id),
                  std::to_string(node.requests),
                  FormatDouble(node.makespan.value(), 0) + " s",
                  node.node_id == 1 ? "drained" : "healthy"});
  }
  nodes.Print(std::cout);

  std::cout << "\nFleet: makespan "
            << FormatDouble(m.makespan.value(), 0) << " s, p95 response "
            << FormatDouble(m.p95_response.value(), 0) << " s, SLA miss "
            << FormatPercent(m.sla_miss_rate, 0) << ", excess under "
            << "contention " << FormatDouble(m.total_excess_s, 0)
            << " s.\n\nPer-tenant blame ledger (seconds of attributed "
            << "slowdown):\n";

  TablePrinter blame({"Tenant", "Requests", "p95 resp", "SLA miss",
                      "Received", "Inflicted", "Self"});
  for (const auto& [tenant, totals] : m.blame_by_tenant) {
    const auto stats = m.per_tenant.find(tenant);
    const size_t requests =
        stats == m.per_tenant.end() ? 0 : stats->second.requests;
    blame.AddRow(
        {std::to_string(tenant), std::to_string(requests),
         stats == m.per_tenant.end()
             ? "-"
             : FormatDouble(stats->second.response.p95(), 0) + " s",
         stats == m.per_tenant.end()
             ? "-"
             : FormatPercent(stats->second.sla_miss_rate(), 0),
         FormatDouble(totals.received_s, 0) + " s",
         FormatDouble(totals.inflicted_s, 0) + " s",
         // The exact-conservation split can leave a ±1e-12 s residue.
         FormatDouble(std::abs(totals.self_s) < 1e-6 ? 0.0 : totals.self_s,
                      0) + " s"});
  }
  blame.Print(std::cout);

  std::cout << "\nReceived + self always reproduce each query's measured "
               "excess exactly; the ledger is conservation-checked in "
               "tests/fleet/.\n";
  return 0;
}
