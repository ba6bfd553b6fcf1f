#include "serve/model_snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sched/mix_oracle.h"
#include "test_support.h"

namespace contender::serve {
namespace {

using contender::testing::SharedPredictor;

std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t version = 1) {
  return ModelSnapshot::Create(SharedPredictor(), version);
}

TEST(ModelSnapshotTest, CarriesVersionAndWorkload) {
  const auto snapshot = MakeSnapshot(7);
  EXPECT_EQ(snapshot->version(), 7u);
  EXPECT_EQ(snapshot->num_templates(),
            static_cast<int>(SharedPredictor().profiles().size()));
}

TEST(ModelSnapshotTest, EmptyMixYieldsIsolatedLatency) {
  const auto snapshot = MakeSnapshot();
  for (int t = 0; t < snapshot->num_templates(); ++t) {
    EXPECT_EQ(snapshot->PredictInMix(t, {}), snapshot->IsolatedLatency(t));
    EXPECT_EQ(snapshot->IsolatedLatency(t),
              SharedPredictor()
                  .profiles()[static_cast<size_t>(t)]
                  .isolated_latency);
  }
}

TEST(ModelSnapshotTest, PredictionIsOrderInsensitive) {
  const auto snapshot = MakeSnapshot();
  EXPECT_EQ(snapshot->PredictInMix(0, {1, 2, 3}),
            snapshot->PredictInMix(0, {3, 1, 2}));
}

TEST(ModelSnapshotTest, UncoveredMplFallsBackToIsolatedLatency) {
  const auto snapshot = MakeSnapshot();
  // MPL 10 has no reference models; the answer degrades to l_min.
  const std::vector<int> huge_mix = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(snapshot->PredictInMix(0, huge_mix),
            snapshot->IsolatedLatency(0));
  bool used_fallback = false;
  (void)sched::PredictInMixUncached(snapshot->predictor(), 0, huge_mix,
                                    &used_fallback);
  EXPECT_TRUE(used_fallback);
}

TEST(ModelSnapshotDeathTest, BadPartnerIndexIsACallerError) {
  // Only a missing model descends the ladder; a partner index outside the
  // workload must not be answered with the isolated latency.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto snapshot = MakeSnapshot();
  EXPECT_DEATH((void)snapshot->PredictInMixTiered(0, {99}),
               "bad partner index");
}

}  // namespace
}  // namespace contender::serve
