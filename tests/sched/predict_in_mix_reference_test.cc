// Exhaustive bit-equality of the dense in-mix prediction against a
// reference copy of the map-based path it replaced: sort the mix, look the
// (MPL, template) QS model up in ContenderPredictor::ReferenceModels, the
// spoiler latency in the profile, compute CQI from the profiles, validate
// the continuum, and fall back to the isolated latency on any failure.
// Every (template, multiset) pair at MPL 2-5 is compared with ==, for all
// three CQI variants, and so are ComputeCqi and the CQI values of every
// training set, against the reference CQI.

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/continuum.h"
#include "core/cqi.h"
#include "core/qs_model.h"
#include "reference_support.h"
#include "sched/mix_oracle.h"
#include "test_support.h"

namespace contender::sched {
namespace {

using contender::testing::Binomial;
using contender::testing::ForEachMultiset;
using contender::testing::RefCqi;
using contender::testing::SharedTrainingData;
using contender::testing::SweepCases;

// ---- Reference: the map-based path, kept verbatim in arithmetic. ----

/// The reference in-mix prediction; `models` is ReferenceModels per MPL.
units::Seconds RefPredictInMix(
    const ContenderPredictor& predictor,
    const std::map<int, std::map<int, QsModel>>& models, CqiVariant variant,
    int t, std::vector<int> concurrent, bool* used_fallback) {
  const auto& profiles = predictor.profiles();
  const TemplateProfile& primary = profiles[static_cast<size_t>(t)];
  *used_fallback = false;
  if (concurrent.empty()) return primary.isolated_latency;
  std::sort(concurrent.begin(), concurrent.end());
  const int mpl = static_cast<int>(concurrent.size()) + 1;
  *used_fallback = true;
  auto mpl_it = models.find(mpl);
  if (mpl_it == models.end()) return primary.isolated_latency;
  auto model_it = mpl_it->second.find(t);
  if (model_it == mpl_it->second.end()) return primary.isolated_latency;
  auto l_max = primary.spoiler_latency.find(mpl);
  if (l_max == primary.spoiler_latency.end()) return primary.isolated_latency;
  std::vector<const TemplateProfile*> conc;
  for (int c : concurrent) conc.push_back(&profiles[static_cast<size_t>(c)]);
  double cqi = 0.0;
  if (!RefCqi(primary, conc, predictor.scan_times(), variant, &cqi)) {
    return primary.isolated_latency;
  }
  auto range = units::LatencyRange::Make(primary.isolated_latency,
                                         l_max->second);
  if (!range.ok()) return primary.isolated_latency;
  const units::ContinuumPoint point(std::clamp(
      model_it->second.PredictContinuum(units::Cqi(cqi)).value(), -0.25,
      1.25));
  *used_fallback = false;
  return std::max(LatencyFromContinuum(point, *range),
                  0.5 * primary.isolated_latency);
}

// ---- Fixtures. ----

ContenderPredictor TrainOn(const std::vector<MixObservation>& observations,
                           CqiVariant variant) {
  const TrainingData& data = SharedTrainingData();
  ContenderPredictor::Options options;
  options.variant = variant;
  auto trained = ContenderPredictor::Train(data.profiles, data.scan_times,
                                           observations, options);
  CONTENDER_CHECK(trained.ok()) << trained.status();
  return std::move(*trained);
}

std::map<int, std::map<int, QsModel>> ModelsOf(
    const ContenderPredictor& predictor) {
  std::map<int, std::map<int, QsModel>> models;
  for (int mpl = 1; mpl <= 8; ++mpl) {
    auto at = predictor.ReferenceModels(units::Mpl(mpl));
    if (at.ok()) models[mpl] = std::move(*at);
  }
  return models;
}

struct SweepResult {
  uint64_t cases = 0;
  uint64_t fallbacks = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
};

/// Compares the dense path (fed the mix in descending order, so every case
/// is also a permutation check) with the reference at every (template,
/// multiset) pair of the given MPLs.
SweepResult Sweep(const ContenderPredictor& predictor, CqiVariant variant,
                  const std::vector<int>& mpls) {
  const auto models = ModelsOf(predictor);
  const int n = static_cast<int>(predictor.profiles().size());
  SweepResult result;
  std::vector<int> reversed;
  for (int mpl : mpls) {
    ForEachMultiset(n, mpl - 1, [&](const std::vector<int>& mix) {
      reversed.assign(mix.rbegin(), mix.rend());
      for (int t = 0; t < n; ++t) {
        bool ref_fallback = false;
        bool fallback = false;
        const units::Seconds expected = RefPredictInMix(
            predictor, models, variant, t, mix, &ref_fallback);
        const units::Seconds got =
            PredictInMixUncached(predictor, t, reversed, &fallback);
        ++result.cases;
        if (fallback) ++result.fallbacks;
        if (got.value() == expected.value() && fallback == ref_fallback) {
          continue;
        }
        if (result.mismatches++ == 0) {
          std::ostringstream out;
          out.precision(17);
          out << "template " << t << " mix {";
          for (int c : mix) out << c << " ";
          out << "}: got " << got.value() << " (fallback " << fallback
              << "), reference " << expected.value() << " (fallback "
              << ref_fallback << ")";
          result.first_mismatch = out.str();
        }
      }
    });
  }
  return result;
}

class PredictInMixReferenceTest
    : public ::testing::TestWithParam<CqiVariant> {};

TEST_P(PredictInMixReferenceTest, EveryMultisetAtMpl2To5IsBitIdentical) {
  const ContenderPredictor predictor =
      TrainOn(SharedTrainingData().observations, GetParam());
  const SweepResult result = Sweep(predictor, GetParam(), {2, 3, 4, 5});
  EXPECT_EQ(result.cases, SweepCases(predictor.profiles().size(), 4));
  EXPECT_EQ(result.mismatches, 0u) << result.first_mismatch;
}

TEST_P(PredictInMixReferenceTest, ProfileCqiMatchesReferenceInMixOrder) {
  // ComputeCqi sums in the caller's order, so compare it on descending
  // mixes, unsorted.
  const TrainingData& data = SharedTrainingData();
  const int n = static_cast<int>(data.profiles.size());
  uint64_t mismatches = 0;
  for (int size = 1; size <= 3; ++size) {
    ForEachMultiset(n, size, [&](const std::vector<int>& mix) {
      const std::vector<int> reversed(mix.rbegin(), mix.rend());
      std::vector<const TemplateProfile*> conc;
      for (int c : reversed) {
        conc.push_back(&data.profiles[static_cast<size_t>(c)]);
      }
      for (int t = 0; t < n; ++t) {
        double expected = 0.0;
        ASSERT_TRUE(RefCqi(data.profiles[static_cast<size_t>(t)], conc,
                           data.scan_times, GetParam(), &expected));
        auto got =
            ComputeCqi(data.profiles, data.scan_times, t, reversed,
                       GetParam());
        ASSERT_TRUE(got.ok()) << got.status();
        if (got->value() != expected) ++mismatches;
      }
    });
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST_P(PredictInMixReferenceTest, TrainingSetCqiMatchesReference) {
  // Training evaluates every observation's mix in observation order; the
  // QS models, and with them every prediction, depend on these values.
  const TrainingData& data = SharedTrainingData();
  uint64_t checked = 0;
  for (int t = 0; t < static_cast<int>(data.profiles.size()); ++t) {
    const TemplateProfile& primary = data.profiles[static_cast<size_t>(t)];
    for (int mpl = 2; mpl <= 5; ++mpl) {
      auto set = BuildQsTrainingSet(data.profiles, data.scan_times,
                                    data.observations, t, units::Mpl(mpl),
                                    GetParam());
      ASSERT_TRUE(set.ok()) << set.status();
      size_t k = 0;
      for (const MixObservation& o : data.observations) {
        if (o.primary_index != t || o.mpl != mpl ||
            ExceedsContinuum(o.latency, primary.spoiler_latency.at(mpl))) {
          continue;
        }
        std::vector<const TemplateProfile*> conc;
        for (int c : o.concurrent_indices) {
          conc.push_back(&data.profiles[static_cast<size_t>(c)]);
        }
        double expected = 0.0;
        ASSERT_TRUE(RefCqi(primary, conc, data.scan_times, GetParam(),
                           &expected));
        ASSERT_LT(k, set->cqi.size());
        EXPECT_EQ(set->cqi[k++].value(), expected);
        ++checked;
      }
      EXPECT_EQ(k, set->cqi.size());
    }
  }
  EXPECT_GT(checked, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, PredictInMixReferenceTest,
    ::testing::Values(CqiVariant::kBaselineIo, CqiVariant::kPositiveIo,
                      CqiVariant::kFull),
    [](const ::testing::TestParamInfo<CqiVariant>& info) {
      switch (info.param) {
        case CqiVariant::kBaselineIo:
          return "BaselineIo";
        case CqiVariant::kPositiveIo:
          return "PositiveIo";
        case CqiVariant::kFull:
          return "Full";
      }
      return "Unknown";
    });

TEST(PredictInMixReferenceEdgeTest, UncoveredMplFallsBackLikeReference) {
  const ContenderPredictor& predictor = contender::testing::SharedPredictor();
  const auto models = ModelsOf(predictor);
  const int n = static_cast<int>(predictor.profiles().size());
  for (int t = 0; t < n; ++t) {
    // MPL 6 and MPL 9: no reference models.
    for (const std::vector<int>& mix :
         {std::vector<int>{t, (t + 1) % n, (t + 2) % n, (t + 3) % n, 0},
          std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}}) {
      bool fallback = false;
      bool ref_fallback = false;
      EXPECT_EQ(PredictInMixUncached(predictor, t, mix, &fallback),
                RefPredictInMix(predictor, models, CqiVariant::kFull, t, mix,
                                &ref_fallback));
      EXPECT_TRUE(fallback);
      EXPECT_TRUE(ref_fallback);
      EXPECT_EQ(PredictInMixUncached(predictor, t, mix),
                predictor.profiles()[static_cast<size_t>(t)]
                    .isolated_latency);
    }
  }
}

TEST(PredictInMixReferenceEdgeTest, TemplateWithoutModelAtOneMpl) {
  // Drop every MPL-3 observation with template 7 as the primary: it keeps
  // its models at MPL 2, 4 and 5 but has none at MPL 3.
  constexpr int kTemplate = 7;
  std::vector<MixObservation> observations;
  for (const MixObservation& o : SharedTrainingData().observations) {
    if (o.primary_index == kTemplate && o.mpl == 3) continue;
    observations.push_back(o);
  }
  const ContenderPredictor predictor =
      TrainOn(observations, CqiVariant::kFull);
  const auto models = ModelsOf(predictor);
  ASSERT_EQ(models.at(3).count(kTemplate), 0u);
  ASSERT_EQ(models.at(2).count(kTemplate), 1u);

  const SweepResult result =
      Sweep(predictor, CqiVariant::kFull, {2, 3, 4});
  EXPECT_EQ(result.mismatches, 0u) << result.first_mismatch;
  // Exactly the MPL-3 probes of the template fall back: one per pair.
  const uint64_t n = predictor.profiles().size();
  EXPECT_EQ(result.fallbacks, Binomial(n + 1, 2));
  bool fallback = false;
  EXPECT_EQ(PredictInMixUncached(predictor, kTemplate, {3, 1}, &fallback),
            predictor.profiles()[kTemplate].isolated_latency);
  EXPECT_TRUE(fallback);
  EXPECT_FALSE(predictor.PredictKnown(kTemplate, {1, 3}).ok());
  EXPECT_TRUE(predictor.PredictKnown(kTemplate, {1}).ok());
}

TEST(PredictInMixReferenceEdgeTest, EveryPermutationMatchesReference) {
  const ContenderPredictor& predictor = contender::testing::SharedPredictor();
  const auto models = ModelsOf(predictor);
  const int n = static_cast<int>(predictor.profiles().size());
  for (int t = 0; t < n; t += 4) {
    std::vector<int> mix = {(t + 9) % n, (t + 2) % n, (t + 2) % n,
                            (t + 17) % n};
    bool ref_fallback = false;
    const units::Seconds expected = RefPredictInMix(
        predictor, models, CqiVariant::kFull, t, mix, &ref_fallback);
    ASSERT_FALSE(ref_fallback);
    std::sort(mix.begin(), mix.end());
    do {
      EXPECT_EQ(PredictInMixUncached(predictor, t, mix), expected);
      auto known = predictor.PredictKnown(t, mix);
      ASSERT_TRUE(known.ok()) << known.status();
      EXPECT_EQ(*known, expected);
    } while (std::next_permutation(mix.begin(), mix.end()));
  }
}

}  // namespace
}  // namespace contender::sched
