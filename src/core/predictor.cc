#include "core/predictor.h"

#include <algorithm>
#include <array>
#include <utility>

#include "util/thread_pool.h"

namespace contender {

namespace {

/// Partners PredictKnown sorts on the stack; larger mixes use the heap.
constexpr size_t kInlinePartners = 8;

/// The QS line at `cqi` on [l_min, l_max] (Eq. 1; l_max > l_min > 0),
/// clamped with a margin: interactions can push latency slightly outside
/// the continuum (§6.1), but a transferred model must not extrapolate, and
/// shared work beats isolation only modestly.
units::Seconds LatencyInMix(const QsModel& qs, units::Seconds l_min,
                            units::Seconds l_max, units::Cqi cqi) {
  const units::ContinuumPoint point(
      std::clamp(qs.PredictContinuum(cqi).value(), -0.25, 1.25));
  const units::Seconds latency = point.value() * (l_max - l_min) + l_min;
  return std::max(latency, 0.5 * l_min);
}

}  // namespace

StatusOr<ContenderPredictor> ContenderPredictor::Train(
    std::vector<TemplateProfile> profiles, ScanTimes scan_times,
    const std::vector<MixObservation>& observations, const Options& options) {
  if (profiles.size() < 4) {
    return Status::InvalidArgument(
        "ContenderPredictor: need >= 4 known templates");
  }
  ContenderPredictor p;
  p.options_ = options;
  p.profiles_ = std::move(profiles);
  p.scan_times_ = std::move(scan_times);

  // The per-MPL fits are independent; fan them across the pool and merge in
  // MPL order so the trained predictor is bit-identical for any pool width.
  ThreadPool pool(options.train_threads > 0 ? options.train_threads
                                            : ThreadPool::DefaultThreads());

  using MplFit = std::pair<std::map<int, QsModel>, QsTransferModel>;
  std::vector<StatusOr<MplFit>> fits = pool.Map(
      options.mpls.size(), [&p, &observations, &options](size_t k)
          -> StatusOr<MplFit> {
        const units::Mpl mpl(options.mpls[k]);
        auto models = FitReferenceModels(p.profiles_, p.scan_times_,
                                         observations, mpl, options.variant);
        if (!models.ok()) return models.status();
        if (models->empty()) {
          return Status::FailedPrecondition(
              "ContenderPredictor: no reference QS models at an MPL; "
              "missing observations?");
        }
        StatusOr<QsTransferModel> transfer =
            options.transfer_feature == TransferFeature::kIsolatedLatency
                ? QsTransferModel::Fit(p.profiles_, *models)
                : QsTransferModel::FitOnFeature(
                      p.profiles_, *models, [mpl](const TemplateProfile& t) {
                        const double slowdown =
                            t.spoiler_latency.at(mpl.value()) /
                            t.isolated_latency;
                        return 1.0 / std::max(slowdown - 1.0, 0.05);
                      });
        if (!transfer.ok()) return transfer.status();
        return std::make_pair(std::move(*models), std::move(*transfer));
      });
  for (size_t k = 0; k < options.mpls.size(); ++k) {
    if (!fits[k].ok()) return fits[k].status();
    const int mpl = options.mpls[k];
    p.reference_models_[mpl] = std::move(fits[k]->first);
    p.transfer_models_.emplace(mpl, std::move(fits[k]->second));
  }

  KnnSpoilerPredictor::Options knn_opts;
  knn_opts.k = options.knn_k;
  knn_opts.train_mpls = options.spoiler_train_mpls;
  auto knn = KnnSpoilerPredictor::Fit(p.profiles_, knn_opts, &pool);
  if (!knn.ok()) return knn.status();
  p.knn_spoiler_.emplace(std::move(*knn));
  std::vector<const TemplateProfile*> known;
  for (const TemplateProfile& profile : p.profiles_) known.push_back(&profile);
  p.cqi_table_ = CqiTable(known, p.scan_times_, known.size());
  p.CompileKnownModels();
  return p;
}

void ContenderPredictor::CompileKnownModels() {
  const size_t n = profiles_.size();
  const int max_mpl =
      reference_models_.empty() ? 0 : reference_models_.rbegin()->first;
  known_models_.assign(static_cast<size_t>(std::max(max_mpl, 0) + 1) * n,
                       KnownModel{});
  for (const auto& [mpl, models] : reference_models_) {
    if (mpl < 1) continue;  // PredictKnown's MPL is partners + 1
    for (const auto& [t, qs] : models) {
      const TemplateProfile& profile = profiles_[static_cast<size_t>(t)];
      auto l_max = profile.spoiler_latency.find(mpl);
      if (l_max == profile.spoiler_latency.end()) continue;
      // The continuum checks run once here instead of on every prediction.
      if (!units::LatencyRange::Make(profile.isolated_latency, l_max->second)
               .ok()) {
        continue;
      }
      known_models_[static_cast<size_t>(mpl) * n + static_cast<size_t>(t)] =
          {qs, l_max->second, true};
    }
  }
}

StatusOr<ContenderPredictor> ContenderPredictor::WithRefitTemplates(
    const std::vector<MixObservation>& observations,
    const std::vector<int>& template_indices) const {
  for (int t : template_indices) {
    if (t < 0 || static_cast<size_t>(t) >= profiles_.size()) {
      return Status::InvalidArgument(
          "WithRefitTemplates: bad template index");
    }
  }
  ContenderPredictor refit = *this;
  for (const int mpl : options_.mpls) {
    auto& models = refit.reference_models_[mpl];
    for (int t : template_indices) {
      auto set = BuildQsTrainingSet(profiles_, scan_times_, observations, t,
                                    units::Mpl(mpl), options_.variant);
      // Keep the existing model when the refreshed set cannot support a
      // fit: refitting must never lose coverage the snapshot already had.
      if (!set.ok() || set->cqi.size() < 3) continue;
      auto model = FitQsModel(set->cqi, set->continuum);
      if (!model.ok()) continue;
      models[t] = *model;
    }
  }
  refit.CompileKnownModels();
  return refit;
}

StatusOr<std::map<int, QsModel>> ContenderPredictor::ReferenceModels(
    units::Mpl mpl) const {
  auto it = reference_models_.find(mpl.value());
  if (it == reference_models_.end()) {
    return Status::NotFound("no reference models at this MPL");
  }
  return it->second;
}

StatusOr<QsTransferModel> ContenderPredictor::TransferModel(
    units::Mpl mpl) const {
  auto it = transfer_models_.find(mpl.value());
  if (it == transfer_models_.end()) {
    return Status::NotFound("no transfer model at this MPL");
  }
  return it->second;
}

StatusOr<units::Seconds> ContenderPredictor::PredictSpoilerLatency(
    const TemplateProfile& profile, units::Mpl mpl) const {
  return knn_spoiler_->Predict(profile, mpl);
}

StatusOr<units::Seconds> ContenderPredictor::ResolveSpoiler(
    const TemplateProfile& profile, units::Mpl mpl,
    SpoilerSource source) const {
  if (source == SpoilerSource::kMeasured) {
    auto it = profile.spoiler_latency.find(mpl.value());
    if (it == profile.spoiler_latency.end()) {
      return Status::FailedPrecondition(
          "profile has no measured spoiler latency at this MPL");
    }
    return it->second;
  }
  return PredictSpoilerLatency(profile, mpl);
}

StatusOr<units::Seconds> ContenderPredictor::PredictWithModel(
    const TemplateProfile& primary, const QsModel& qs,
    const std::vector<int>& concurrent, units::Seconds l_max) const {
  std::vector<const TemplateProfile*> conc;
  for (int c : concurrent) {
    if (c < 0 || static_cast<size_t>(c) >= profiles_.size()) {
      return Status::InvalidArgument("bad concurrent template index");
    }
    conc.push_back(&profiles_[static_cast<size_t>(c)]);
  }
  CONTENDER_ASSIGN_OR_RETURN(
      const units::Cqi cqi,
      ComputeCqiFor(primary, conc, scan_times_, options_.variant));
  CONTENDER_RETURN_IF_ERROR(
      units::LatencyRange::Make(primary.isolated_latency, l_max).status());
  return LatencyInMix(qs, primary.isolated_latency, l_max, cqi);
}

StatusOr<units::Seconds> ContenderPredictor::PredictKnown(
    int template_index, const std::vector<int>& concurrent_indices) const {
  const size_t n = profiles_.size();
  const size_t size = concurrent_indices.size();
  if (template_index < 0 || static_cast<size_t>(template_index) >= n) {
    return Status::InvalidArgument("unknown template index");
  }
  const size_t slot = (size + 1) * n + static_cast<size_t>(template_index);
  if (slot >= known_models_.size() || !known_models_[slot].valid) {
    return Status::NotFound(
        "no usable QS model for this template at this MPL");
  }
  // Evaluate the sorted mix, so the answer is a pure function of the
  // multiset: CQI sums over the mix in order, and floating-point addition
  // is not associative.
  std::array<int, kInlinePartners> inline_partners;
  std::vector<int> spilled(size > kInlinePartners ? size : 0);
  const std::span<int> partners =
      spilled.empty() ? std::span(inline_partners).first(size)
                      : std::span(spilled);
  for (size_t i = 0; i < partners.size(); ++i) {
    const int c = concurrent_indices[i];
    if (c < 0 || static_cast<size_t>(c) >= n) {
      return Status::InvalidArgument("bad concurrent template index");
    }
    // Insertion sort: mixes are a handful of partners.
    size_t j = i;
    for (; j > 0 && partners[j - 1] > c; --j) partners[j] = partners[j - 1];
    partners[j] = c;
  }
  CONTENDER_RETURN_IF_ERROR(cqi_table_.CheckPartners(partners));
  const KnownModel& model = known_models_[slot];
  return LatencyInMix(
      model.qs, profiles_[static_cast<size_t>(template_index)].isolated_latency,
      model.l_max, cqi_table_.Cqi(template_index, partners, options_.variant));
}

StatusOr<units::Seconds> ContenderPredictor::PredictNew(
    const TemplateProfile& new_profile,
    const std::vector<int>& concurrent_indices,
    SpoilerSource spoiler_source) const {
  const units::Mpl mpl(static_cast<int>(concurrent_indices.size()) + 1);
  auto transfer_it = transfer_models_.find(mpl.value());
  if (transfer_it == transfer_models_.end()) {
    return Status::NotFound("no transfer model at this MPL");
  }
  auto l_max = ResolveSpoiler(new_profile, mpl, spoiler_source);
  if (!l_max.ok()) return l_max.status();
  QsModel qs;
  if (options_.transfer_feature == TransferFeature::kIsolatedLatency) {
    qs = transfer_it->second.PredictFromIsolatedLatency(
        new_profile.isolated_latency);
  } else {
    const double slowdown = *l_max / new_profile.isolated_latency;
    qs = transfer_it->second.PredictFromFeatureValue(
        1.0 / std::max(slowdown - 1.0, 0.05));
  }
  return PredictWithModel(new_profile, qs, concurrent_indices, *l_max);
}

StatusOr<units::Seconds> ContenderPredictor::PredictNewWithKnownSlope(
    const TemplateProfile& new_profile,
    const std::vector<int>& concurrent_indices, double known_slope,
    SpoilerSource spoiler_source) const {
  const units::Mpl mpl(static_cast<int>(concurrent_indices.size()) + 1);
  auto transfer_it = transfer_models_.find(mpl.value());
  if (transfer_it == transfer_models_.end()) {
    return Status::NotFound("no transfer model at this MPL");
  }
  const QsModel qs =
      transfer_it->second.PredictInterceptFromSlope(known_slope);
  auto l_max = ResolveSpoiler(new_profile, mpl, spoiler_source);
  if (!l_max.ok()) return l_max.status();
  return PredictWithModel(new_profile, qs, concurrent_indices, *l_max);
}

}  // namespace contender
