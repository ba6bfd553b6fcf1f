#include "sim/run_cache.h"

#include <vector>

#include <gtest/gtest.h>

namespace contender::sim {
namespace {

QuerySpec MakeSpec(double seq_bytes = 1e9, double cpu = 2.0) {
  QuerySpec spec;
  spec.name = "probe";
  spec.template_id = 7;
  Phase phase;
  phase.seq_io_bytes = seq_bytes;
  phase.table = 3;
  phase.table_bytes = seq_bytes;
  phase.cpu_seconds = cpu;
  spec.phases.push_back(phase);
  return spec;
}

/// Digest of one engine run's full input: hardware, seed, run mode and the
/// spec set in add order.
uint64_t HashRun(const std::vector<QuerySpec>& specs, const SimConfig& config,
                 uint64_t seed, int run_until) {
  RunHasher hasher;
  hasher.Add(config);
  hasher.Add(seed);
  hasher.Add(run_until);
  hasher.Add(static_cast<uint64_t>(specs.size()));
  for (const QuerySpec& spec : specs) hasher.Add(spec);
  return hasher.Digest();
}

TEST(RunHasherTest, HashIsStableForEqualInputs) {
  const std::vector<QuerySpec> specs = {MakeSpec(), MakeSpec(2e9, 1.0)};
  const SimConfig config;
  EXPECT_EQ(HashRun(specs, config, 42, -1), HashRun(specs, config, 42, -1));
  // A rebuilt but identical spec set hashes the same (content, not
  // identity).
  EXPECT_EQ(HashRun({MakeSpec()}, config, 1, 0),
            HashRun({MakeSpec()}, config, 1, 0));
}

TEST(RunHasherTest, HashDiscriminatesEveryInputDimension) {
  const std::vector<QuerySpec> specs = {MakeSpec()};
  const SimConfig config;
  const uint64_t base = HashRun(specs, config, 42, -1);

  EXPECT_NE(base, HashRun(specs, config, 43, -1));  // seed
  EXPECT_NE(base, HashRun(specs, config, 42, 0));   // run mode

  SimConfig slower = config;
  slower.seq_bandwidth *= 0.5;
  EXPECT_NE(base, HashRun(specs, slower, 42, -1));  // hardware

  QuerySpec bigger = MakeSpec();
  bigger.phases[0].seq_io_bytes += 1.0;
  EXPECT_NE(base, HashRun({bigger}, config, 42, -1));  // spec content

  QuerySpec renamed = MakeSpec();
  renamed.name = "probe2";
  EXPECT_NE(base, HashRun({renamed}, config, 42, -1));  // identity

  // One spec vs the same spec twice.
  EXPECT_NE(base, HashRun({MakeSpec(), MakeSpec()}, config, 42, -1));
}

TEST(RunHasherTest, SignedZeroHashesLikePositiveZero) {
  RunHasher a, b;
  a.Add(0.0);
  b.Add(-0.0);
  EXPECT_EQ(a.Digest(), b.Digest());
}

}  // namespace
}  // namespace contender::sim
