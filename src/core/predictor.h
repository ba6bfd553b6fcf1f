// The end-to-end Contender pipeline (paper Fig. 5): train reference QS
// models on a known workload, then predict concurrent latency for known
// templates (via their own QS model) and for new templates (via QS
// coefficient transfer plus measured or KNN-predicted spoiler latency).

#ifndef CONTENDER_CORE_PREDICTOR_H_
#define CONTENDER_CORE_PREDICTOR_H_

#include <map>
#include <optional>
#include <vector>

#include "core/cqi.h"
#include "core/qs_model.h"
#include "core/qs_transfer.h"
#include "core/spoiler_model.h"
#include "core/template_profile.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender {

/// Which isolated statistic the QS slope is transferred from (§5.3).
enum class TransferFeature {
  /// The paper's choice: µ regressed on isolated latency (Table 3).
  kIsolatedLatency,
  /// Ablation: µ regressed on 1 / (l_max/l_min - 1). The QS slope is
  /// approximately (mix sensitivity) / (spoiler range), so the inverse
  /// spoiler slowdown is the theory-suggested predictor; it uses only
  /// information Contender already has (the measured or KNN-predicted
  /// spoiler latency).
  kInverseSpoilerSlowdown,
};

/// Where a new template's continuum upper bound comes from.
enum class SpoilerSource {
  /// Measured spoiler latency in the profile (linear-time sampling).
  kMeasured,
  /// KNN-predicted from isolated statistics (constant-time sampling).
  kKnnPredicted,
};

/// Trained Contender predictor for one workload and hardware model.
class ContenderPredictor {
 public:
  struct Options {
    /// MPLs with reference models.
    std::vector<int> mpls = {2, 3, 4, 5};
    CqiVariant variant = CqiVariant::kFull;
    /// Neighbors for spoiler prediction.
    int knn_k = 3;
    /// MPLs used when fitting reference spoiler growth models.
    std::vector<int> spoiler_train_mpls = {1, 2, 3, 4, 5};
    /// Feature the QS slope is transferred from for new templates.
    TransferFeature transfer_feature = TransferFeature::kIsolatedLatency;
    /// Pool width for the per-MPL model fits; <= 0 selects hardware
    /// concurrency. Results are bit-identical for every width.
    int train_threads = 0;
  };

  /// Trains on the known workload: isolated profiles (with spoiler
  /// latencies), fact-table scan times, and steady-state mix observations.
  static StatusOr<ContenderPredictor> Train(
      std::vector<TemplateProfile> profiles, ScanTimes scan_times,
      const std::vector<MixObservation>& observations,
      const Options& options);

  /// Predicts the latency of a *known* template (index into the training
  /// profiles) executing with the given concurrent templates, evaluated on
  /// the sorted mix. InvalidArgument on a bad index or an empty mix;
  /// NotFound when the template has no QS model, measured spoiler latency
  /// or valid continuum at the mix's MPL.
  StatusOr<units::Seconds> PredictKnown(
      int template_index, const std::vector<int>& concurrent_indices) const {
    return PredictCompiled(known_models_, template_index, concurrent_indices);
  }

  /// PredictKnown with the template treated as new: its QS model
  /// transferred from its isolated statistics and its l_max predicted by
  /// the spoiler KNN, both compiled at Train. Bit-identical to
  /// PredictNew(profiles()[template_index], sorted mix, kKnnPredicted).
  StatusOr<units::Seconds> PredictTransferred(
      int template_index, const std::vector<int>& concurrent_indices) const {
    return PredictCompiled(transferred_models_, template_index,
                           concurrent_indices);
  }

  /// Predicts the latency of a *new* template described only by
  /// `new_profile` (isolated stats + plan semantics; spoiler latencies
  /// required only for SpoilerSource::kMeasured). Concurrent queries are
  /// known-workload indices, evaluated in the order given.
  StatusOr<units::Seconds> PredictNew(
      const TemplateProfile& new_profile,
      const std::vector<int>& concurrent_indices,
      SpoilerSource spoiler_source) const {
    return PredictNewFromTransfer(new_profile, concurrent_indices,
                                  spoiler_source, std::nullopt);
  }

  /// Unknown-Y variant (§6.3): the new template's own QS slope is supplied;
  /// only the intercept is transferred.
  StatusOr<units::Seconds> PredictNewWithKnownSlope(
      const TemplateProfile& new_profile,
      const std::vector<int>& concurrent_indices, double known_slope,
      SpoilerSource spoiler_source) const {
    return PredictNewFromTransfer(new_profile, concurrent_indices,
                                  spoiler_source, known_slope);
  }

  /// Online-refit entry point (§6: the models are cheap enough to maintain
  /// incrementally): returns a copy of this predictor whose per-template QS
  /// reference models for `template_indices` are refit at every trained MPL
  /// from `observations` — the *full* training set, i.e. the original
  /// observations plus whatever has streamed in since. Everything else
  /// (transfer models, spoiler KNN, PredictTransferred's records,
  /// profiles) is copied. A template whose refreshed training set is too
  /// small or degenerate at some MPL keeps its existing model there, so a
  /// refit never loses coverage.
  /// serve::RefitController builds hot-swappable snapshots through this.
  StatusOr<ContenderPredictor> WithRefitTemplates(
      const std::vector<MixObservation>& observations,
      const std::vector<int>& template_indices) const;

  // Accessors for experiment harnesses.
  const std::vector<TemplateProfile>& profiles() const { return profiles_; }
  const ScanTimes& scan_times() const { return scan_times_; }
  /// Reference QS models at `mpl` (template index -> model).
  StatusOr<std::map<int, QsModel>> ReferenceModels(units::Mpl mpl) const;
  StatusOr<QsTransferModel> TransferModel(units::Mpl mpl) const;
  /// Predicted spoiler latency for an arbitrary profile.
  StatusOr<units::Seconds> PredictSpoilerLatency(
      const TemplateProfile& profile, units::Mpl mpl) const;

 private:
  ContenderPredictor() = default;

  /// What a compiled prediction reads at one (MPL, template): a QS model
  /// and l_max there, and whether both exist and span a valid continuum
  /// (l_min > 0, l_max > l_min).
  struct KnownModel {
    QsModel qs;
    units::Seconds l_max;
    bool valid = false;
  };

  /// Rebuilds known_models_ from the reference models and the measured
  /// spoiler latencies; Train and WithRefitTemplates end with it.
  void CompileKnownModels();
  /// PredictKnown over `models` (known_models_ or transferred_models_).
  StatusOr<units::Seconds> PredictCompiled(
      const std::vector<KnownModel>& models, int template_index,
      const std::vector<int>& concurrent_indices) const;
  /// PredictNew, or PredictNewWithKnownSlope when `known_slope` is set.
  StatusOr<units::Seconds> PredictNewFromTransfer(
      const TemplateProfile& new_profile,
      const std::vector<int>& concurrent_indices,
      SpoilerSource spoiler_source, std::optional<double> known_slope) const;

  Options options_;
  std::vector<TemplateProfile> profiles_;
  ScanTimes scan_times_;
  std::map<int, std::map<int, QsModel>> reference_models_;  // mpl -> models
  std::vector<std::optional<QsTransferModel>> transfer_models_;  // by mpl
  std::optional<KnnSpoilerPredictor> knn_spoiler_;
  /// CQI inputs of the known templates, positioned like profiles_.
  CqiTable cqi_table_;
  /// Dense [mpl][template] records, at mpl * profiles_.size() + template
  /// for every mpl up to the largest trained one: the reference QS models
  /// with measured l_max, and the transferred ones with KNN l_max.
  std::vector<KnownModel> known_models_;
  std::vector<KnownModel> transferred_models_;
};

}  // namespace contender

#endif  // CONTENDER_CORE_PREDICTOR_H_
