// Exhaustive bit-equality of the transferred-QS predictions against a
// reference copy of the per-call path they replaced: ComputeCqiFor (here
// the reference CQI over profiles, in mix order), PredictWithModel's
// partner check, continuum check and clamp, and PredictNew /
// PredictNewWithKnownSlope's transfer-model lookup and spoiler resolution.
//   (a) PredictTransferred at every (template, multiset) pair at MPL 2-5,
//       against the reference PredictNew of the template's own profile on
//       the sorted mix with the KNN spoiler;
//   (b) PredictNew and PredictNewWithKnownSlope on held-out profiles, on
//       descending (unsorted) mixes, for both spoiler sources.
// Both transfer features; ok-ness is compared as well as the bits.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/predictor.h"
#include "reference_support.h"
#include "test_support.h"

namespace contender {
namespace {

using testing::ForEachMultiset;
using testing::RefCqi;
using testing::SharedTrainingData;
using testing::SweepCases;

// ---- Reference: the per-call path, kept verbatim in arithmetic. ----

/// The QS line at `cqi` on [l_min, l_max], clamped.
units::Seconds RefLatencyInMix(const QsModel& qs, units::Seconds l_min,
                               units::Seconds l_max, units::Cqi cqi) {
  const units::ContinuumPoint point(
      std::clamp(qs.PredictContinuum(cqi).value(), -0.25, 1.25));
  const units::Seconds latency = point.value() * (l_max - l_min) + l_min;
  return std::max(latency, 0.5 * l_min);
}

/// PredictWithModel over ComputeCqiFor; nullopt where either failed.
std::optional<units::Seconds> RefPredictWithModel(
    const ContenderPredictor& predictor, const TemplateProfile& primary,
    const QsModel& qs, const std::vector<int>& concurrent,
    units::Seconds l_max) {
  const auto& profiles = predictor.profiles();
  std::vector<const TemplateProfile*> conc;
  for (int c : concurrent) {
    if (c < 0 || static_cast<size_t>(c) >= profiles.size()) {
      return std::nullopt;
    }
    conc.push_back(&profiles[static_cast<size_t>(c)]);
  }
  double cqi = 0.0;
  if (!RefCqi(primary, conc, predictor.scan_times(), CqiVariant::kFull,
              &cqi)) {
    return std::nullopt;
  }
  if (!units::LatencyRange::Make(primary.isolated_latency, l_max).ok()) {
    return std::nullopt;
  }
  return RefLatencyInMix(qs, primary.isolated_latency, l_max,
                         units::Cqi(cqi));
}

/// PredictNew, or PredictNewWithKnownSlope when `known_slope` is set.
std::optional<units::Seconds> RefPredictNew(
    const ContenderPredictor& predictor, TransferFeature feature,
    const TemplateProfile& profile, const std::vector<int>& concurrent,
    SpoilerSource source, std::optional<double> known_slope) {
  const units::Mpl mpl(static_cast<int>(concurrent.size()) + 1);
  auto transfer = predictor.TransferModel(mpl);
  if (!transfer.ok()) return std::nullopt;
  units::Seconds l_max;
  if (source == SpoilerSource::kMeasured) {
    auto it = profile.spoiler_latency.find(mpl.value());
    if (it == profile.spoiler_latency.end()) return std::nullopt;
    l_max = it->second;
  } else {
    auto knn = predictor.PredictSpoilerLatency(profile, mpl);
    if (!knn.ok()) return std::nullopt;
    l_max = *knn;
  }
  QsModel qs;
  if (known_slope.has_value()) {
    qs = transfer->PredictInterceptFromSlope(*known_slope);
  } else if (feature == TransferFeature::kIsolatedLatency) {
    qs = transfer->PredictFromIsolatedLatency(profile.isolated_latency);
  } else {
    const double slowdown = l_max / profile.isolated_latency;
    qs = transfer->PredictFromFeatureValue(
        1.0 / std::max(slowdown - 1.0, 0.05));
  }
  return RefPredictWithModel(predictor, profile, qs, concurrent, l_max);
}

// ---- Fixtures. ----

ContenderPredictor TrainOn(const std::vector<TemplateProfile>& profiles,
                           const std::vector<MixObservation>& observations,
                           TransferFeature feature) {
  ContenderPredictor::Options options;
  options.transfer_feature = feature;
  auto trained = ContenderPredictor::Train(
      profiles, SharedTrainingData().scan_times, observations, options);
  CONTENDER_CHECK(trained.ok()) << trained.status();
  return std::move(*trained);
}

struct Tally {
  uint64_t cases = 0;
  uint64_t ok = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;

  /// Counts one case: equal when both failed, or both answered the same
  /// bits.
  void Add(const StatusOr<units::Seconds>& got,
           const std::optional<units::Seconds>& expected,
           const std::string& what) {
    ++cases;
    if (got.ok()) ++ok;
    if (got.ok() == expected.has_value() &&
        (!got.ok() || got->value() == expected->value())) {
      return;
    }
    if (mismatches++ > 0) return;
    std::ostringstream out;
    out.precision(17);
    out << what << ": got ";
    if (got.ok()) {
      out << got->value();
    } else {
      out << got.status();
    }
    out << ", reference ";
    if (expected.has_value()) {
      out << expected->value();
    } else {
      out << "failure";
    }
    first_mismatch = out.str();
  }
};

std::string Describe(const char* call, int t, const std::vector<int>& mix) {
  std::ostringstream out;
  out << call << " template " << t << " mix {";
  for (int c : mix) out << c << " ";
  out << "}";
  return out.str();
}

class TransferReferenceTest
    : public ::testing::TestWithParam<TransferFeature> {};

TEST_P(TransferReferenceTest, EveryMultisetAtMpl2To5IsBitIdentical) {
  const TrainingData& data = SharedTrainingData();
  const ContenderPredictor predictor =
      TrainOn(data.profiles, data.observations, GetParam());
  const int n = static_cast<int>(predictor.profiles().size());
  Tally tally;
  std::vector<int> reversed;
  for (int partners = 1; partners <= 4; ++partners) {
    ForEachMultiset(n, partners, [&](const std::vector<int>& mix) {
      // The compiled path sorts; feed it the mix descending.
      reversed.assign(mix.rbegin(), mix.rend());
      for (int t = 0; t < n; ++t) {
        tally.Add(predictor.PredictTransferred(t, reversed),
                  RefPredictNew(predictor, GetParam(),
                                predictor.profiles()[static_cast<size_t>(t)],
                                mix, SpoilerSource::kKnnPredicted,
                                std::nullopt),
                  Describe("PredictTransferred", t, mix));
      }
    });
  }
  EXPECT_EQ(tally.cases, SweepCases(static_cast<uint64_t>(n), 4));
  EXPECT_EQ(tally.mismatches, 0u) << tally.first_mismatch;
  EXPECT_GT(tally.ok, tally.cases / 2);
}

TEST_P(TransferReferenceTest, HeldOutProfilesMatchReferenceInMixOrder) {
  // Four templates held out of training, as fig8's folds hold them out.
  const TrainingData& data = SharedTrainingData();
  const std::vector<int> held_out = {2, 9, 16, 23};
  const testing::HeldOutTraining view =
      testing::MakeHeldOutTraining(data, held_out);
  const ContenderPredictor predictor =
      TrainOn(view.profiles, view.observations, GetParam());
  const ContenderPredictor& full = testing::SharedPredictor();
  const int n = static_cast<int>(predictor.profiles().size());
  Tally tally;
  std::vector<int> reversed;
  for (int partners = 1; partners <= 4; ++partners) {
    const units::Mpl mpl(partners + 1);
    auto own_models = full.ReferenceModels(mpl);
    ASSERT_TRUE(own_models.ok()) << own_models.status();
    ForEachMultiset(n, partners, [&](const std::vector<int>& mix) {
      // PredictNew sums in the order given: keep the mix unsorted.
      reversed.assign(mix.rbegin(), mix.rend());
      for (int held : held_out) {
        const TemplateProfile& target =
            data.profiles[static_cast<size_t>(held)];
        // Unknown-Y's slope: the template's own, fit on the full data.
        auto own = own_models->find(held);
        const double slope = own == own_models->end() ? 0.5
                                                      : own->second.slope;
        for (SpoilerSource source :
             {SpoilerSource::kMeasured, SpoilerSource::kKnnPredicted}) {
          tally.Add(predictor.PredictNew(target, reversed, source),
                    RefPredictNew(predictor, GetParam(), target, reversed,
                                  source, std::nullopt),
                    Describe("PredictNew", held, reversed));
          tally.Add(predictor.PredictNewWithKnownSlope(target, reversed,
                                                       slope, source),
                    RefPredictNew(predictor, GetParam(), target, reversed,
                                  source, slope),
                    Describe("PredictNewWithKnownSlope", held, reversed));
        }
      }
    });
  }
  EXPECT_EQ(tally.cases, 4u * 2u * 2u * SweepCases(n, 4) / n);
  EXPECT_EQ(tally.mismatches, 0u) << tally.first_mismatch;
  EXPECT_GT(tally.ok, tally.cases / 2);
}

INSTANTIATE_TEST_SUITE_P(
    BothFeatures, TransferReferenceTest,
    ::testing::Values(TransferFeature::kIsolatedLatency,
                      TransferFeature::kInverseSpoilerSlowdown),
    [](const ::testing::TestParamInfo<TransferFeature>& info) {
      return info.param == TransferFeature::kIsolatedLatency
                 ? "IsolatedLatency"
                 : "InverseSpoilerSlowdown";
    });

TEST(TransferReferenceEdgeTest, FailuresMatchReference) {
  const ContenderPredictor& predictor = testing::SharedPredictor();
  const TemplateProfile& profile = predictor.profiles()[3];
  Tally tally;
  // MPL 6 has no transfer model; 7 and -1 are no template; an empty mix
  // has no partner.
  for (const std::vector<int>& mix :
       {std::vector<int>{1, 2, 3, 4, 5}, std::vector<int>{1, 99},
        std::vector<int>{-1, 4, 4}, std::vector<int>{}}) {
    tally.Add(predictor.PredictTransferred(3, mix),
              RefPredictNew(predictor, TransferFeature::kIsolatedLatency,
                            profile, mix, SpoilerSource::kKnnPredicted,
                            std::nullopt),
              Describe("PredictTransferred", 3, mix));
    for (SpoilerSource source :
         {SpoilerSource::kMeasured, SpoilerSource::kKnnPredicted}) {
      tally.Add(predictor.PredictNew(profile, mix, source),
                RefPredictNew(predictor, TransferFeature::kIsolatedLatency,
                              profile, mix, source, std::nullopt),
                Describe("PredictNew", 3, mix));
    }
  }
  EXPECT_EQ(tally.mismatches, 0u) << tally.first_mismatch;
  EXPECT_EQ(tally.ok, 0u);
  EXPECT_FALSE(predictor.PredictTransferred(-1, {1}).ok());
  EXPECT_FALSE(predictor.PredictTransferred(25, {1}).ok());
}

TEST(TransferReferenceEdgeTest, RefitKeepsTheTransferredRecords) {
  // A refit touches only reference QS models, none of the transferred
  // records' inputs.
  const ContenderPredictor& predictor = testing::SharedPredictor();
  auto refit = predictor.WithRefitTemplates(SharedTrainingData().observations,
                                            {0, 5, 11});
  ASSERT_TRUE(refit.ok()) << refit.status();
  const int n = static_cast<int>(predictor.profiles().size());
  uint64_t compared = 0;
  ForEachMultiset(n, 2, [&](const std::vector<int>& mix) {
    for (int t = 0; t < n; t += 5) {
      auto before = predictor.PredictTransferred(t, mix);
      auto after = refit->PredictTransferred(t, mix);
      ASSERT_EQ(before.ok(), after.ok());
      if (before.ok()) {
        EXPECT_EQ(before->value(), after->value());
      }
      ++compared;
    }
  });
  EXPECT_GT(compared, 1000u);
}

}  // namespace
}  // namespace contender
