// The admission policies' view of ContenderPredictor.
//
// A policy evaluates "template t in running mix M" once per distinct
// arrived template on every slot-free event, and the fleet router once per
// candidate node per route. Each probe is one dense in-mix prediction (a
// few dozen flops for a mix of up to four partners, cheaper than a memo
// lookup), so the oracle keeps no cache: its jobs are the
// health check, the "sched.mix_oracle.predict" fail point, the
// isolated-latency fallback and thread-safe counters.

#ifndef CONTENDER_SCHED_MIX_ORACLE_H_
#define CONTENDER_SCHED_MIX_ORACLE_H_

#include <cstdint>
#include <vector>

#include "core/predictor.h"
#include "util/sharded_counter.h"
#include "util/units.h"

namespace contender::sched {

/// Per-template health as seen by the scheduler: Degraded(t) means t's
/// circuit breaker is open — its model's predictions are currently not
/// trusted, and consumers must fall back to isolated-latency reasoning
/// instead of scheduling on garbage. serve::HealthTracker implements this
/// (the interface lives here so sched/ does not depend on serve/).
/// Implementations must be thread-safe.
class TemplateHealth {
 public:
  virtual ~TemplateHealth() = default;
  [[nodiscard]] virtual bool Degraded(int template_index) const = 0;
};

/// The shared, lock-free in-mix prediction: ContenderPredictor::PredictKnown,
/// or the isolated latency when no model covers the (template, MPL) pair,
/// so the answer is total and a pure function of the (template, multiset)
/// pair. `template_index` and every partner index must be valid (a bad one
/// is a CHECK failure, not a fallback); `used_fallback`, if non-null, is
/// set to whether the fallback fired.
units::Seconds PredictInMixUncached(const ContenderPredictor& predictor,
                                    int template_index,
                                    const std::vector<int>& concurrent,
                                    bool* used_fallback = nullptr);

/// Thread-safe view of a trained predictor for policy evaluation. A
/// parallel policy sweep may probe one oracle from several workers; the
/// predictor is immutable and the counters are cache-line-padded stripes.
class MixOracle {
 public:
  struct Options {
    /// Optional per-template health signal (must outlive the oracle). When
    /// a template's breaker is open, PredictInMix degrades to its isolated
    /// latency and policies switch to shortest-isolated scoring.
    const TemplateHealth* health = nullptr;
  };

  explicit MixOracle(const ContenderPredictor* predictor);
  MixOracle(const ContenderPredictor* predictor, const Options& options);

  /// Predicted latency of `template_index` executing inside `concurrent`
  /// (workload indices of the other running queries, order-irrelevant).
  /// An empty mix yields the isolated latency. When the predictor has no
  /// reference/QS model covering the mix's MPL or template, the oracle
  /// falls back to the isolated latency (counted in fallbacks()) so policy
  /// scores stay total and deterministic.
  units::Seconds PredictInMix(int template_index,
                              const std::vector<int>& concurrent) const;

  /// l_min of a template (a profile lookup).
  units::Seconds IsolatedLatency(int template_index) const;

  /// True when the health signal reports an open breaker for the template
  /// (always false without an Options::health). Policies consult this to
  /// drop to shortest-isolated scoring.
  bool Degraded(int template_index) const;

  int num_templates() const {
    return static_cast<int>(predictor_->profiles().size());
  }
  const ContenderPredictor& predictor() const { return *predictor_; }

  /// Always 0 (there is no memo); kept for readers of the hit/miss pair.
  uint64_t hits() const { return 0; }
  /// Model evaluations: PredictInMix calls with a non-empty mix that were
  /// not degraded (fallbacks included).
  uint64_t misses() const;
  /// Evaluations answered with the isolated latency because no model
  /// covers the (template, MPL) pair.
  uint64_t fallbacks() const;
  /// PredictInMix calls answered with the isolated latency because of an
  /// open breaker or a fired "sched.mix_oracle.predict" fail point.
  uint64_t degradations() const;

 private:
  const ContenderPredictor* const predictor_;
  const Options options_;

  /// Striped (cache-line-padded) by template, so concurrent probes rarely
  /// share a counter line.
  mutable ShardedCounter evaluations_;
  mutable ShardedCounter fallbacks_;
  mutable ShardedCounter degradations_;
};

}  // namespace contender::sched

#endif  // CONTENDER_SCHED_MIX_ORACLE_H_
