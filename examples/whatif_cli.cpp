// What-if explorer: a small CLI over the trained predictor.
//
//   ./build/examples/whatif_cli --primary=71 --with=26,33 [--seed=42]
//       predict the latency of template q71 running with q26 and q33
//       (MPL = 1 + number of partners), and verify with a steady-state
//       simulation (--no-verify to skip).
//
//   ./build/examples/whatif_cli --list
//       show the workload templates and their isolated profiles.

#include <iostream>
#include <sstream>

#include "core/predictor.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table_printer.h"
#include "workload/sampler.h"
#include "workload/steady_state.h"

using namespace contender;

namespace {

std::vector<int> ParseIdList(const std::string& csv) {
  std::vector<int> ids;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) ids.push_back(std::stoi(item));
  }
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t seed = flags.Seed();
  const bool list = flags.GetBool("list", false);
  const int primary_id = static_cast<int>(flags.GetInt("primary", 71));
  const std::string with = flags.GetString("with", "26,33");
  const bool verify = flags.GetBool("verify", true);
  flags.RejectUnknown();
  Workload workload = Workload::Paper();
  sim::SimConfig machine;

  WorkloadSampler::Options sampling;
  sampling.seed = seed;
  WorkloadSampler sampler(&workload, machine, sampling);

  if (list) {
    std::cout << "Profiling the workload (isolated runs)...\n\n";
    TablePrinter table({"Template", "Description", "Isolated", "p_t",
                        "Working set"});
    for (int i = 0; i < workload.size(); ++i) {
      auto p = sampler.ProfileTemplate(i, {});
      CONTENDER_CHECK(p.ok()) << p.status();
      table.AddRow({"q" + std::to_string(workload.tmpl(i).id),
                    workload.tmpl(i).description,
                    FormatDouble(p->isolated_latency.value(), 0) + " s",
                    FormatDouble(p->io_fraction.value(), 2),
                    FormatDouble(p->working_set_bytes.value() / 1e6, 0) + " MB"});
    }
    table.Print(std::cout);
    return 0;
  }

  const std::vector<int> partner_ids = ParseIdList(with);
  const int primary = workload.IndexOfId(primary_id);
  CONTENDER_CHECK(primary >= 0) << "unknown template q" << primary_id;
  std::vector<int> partners;
  for (int id : partner_ids) {
    const int idx = workload.IndexOfId(id);
    CONTENDER_CHECK(idx >= 0) << "unknown template q" << id;
    partners.push_back(idx);
  }
  CONTENDER_CHECK(!partners.empty()) << "--with must name partners";
  CONTENDER_CHECK(partners.size() <= 4) << "MPL 2-5 supported";

  std::cout << "Training Contender (seed " << seed << ")...\n";
  auto data = sampler.CollectAll();
  CONTENDER_CHECK(data.ok()) << data.status();
  auto predictor = ContenderPredictor::Train(
      data->profiles, data->scan_times, data->observations,
      ContenderPredictor::Options{});
  CONTENDER_CHECK(predictor.ok()) << predictor.status();

  auto predicted = predictor->PredictKnown(primary, partners);
  CONTENDER_CHECK(predicted.ok()) << predicted.status();
  const TemplateProfile& profile =
      data->profiles[static_cast<size_t>(primary)];

  std::cout << "\nq" << primary_id << " with {";
  for (size_t i = 0; i < partners.size(); ++i) {
    std::cout << (i ? ", q" : "q") << workload.tmpl(partners[i]).id;
  }
  std::cout << "}  (MPL " << partners.size() + 1 << ")\n";
  std::cout << "  isolated latency:  "
            << FormatDouble(profile.isolated_latency.value(), 0) << " s\n";
  std::cout << "  predicted latency: " << FormatDouble(predicted->value(), 0)
            << " s  (slowdown "
            << FormatDouble(*predicted / profile.isolated_latency, 2)
            << "x)\n";

  if (verify) {
    std::vector<int> mix = {primary};
    mix.insert(mix.end(), partners.begin(), partners.end());
    SteadyStateOptions ss;
    ss.seed = seed + 1;
    auto observed = RunSteadyState(workload, mix, machine, ss);
    CONTENDER_CHECK(observed.ok()) << observed.status();
    const double actual = observed->streams[0].mean_latency;
    std::cout << "  observed latency:  " << FormatDouble(actual, 0)
              << " s  (prediction error "
              << FormatPercent(std::abs(actual - predicted->value()) / actual)
              << ")\n";
  }
  return 0;
}
