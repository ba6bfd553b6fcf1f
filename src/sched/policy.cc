#include "sched/policy.h"

#include <limits>

#include "util/logging.h"

namespace contender::sched {

namespace {

Status ValidateContext(const RequestQueue& queue, const SchedContext& ctx,
                       size_t* arrived) {
  if (ctx.oracle == nullptr || ctx.running_templates == nullptr) {
    return Status::InvalidArgument("SchedContext is incomplete");
  }
  *arrived = queue.ArrivedBy(ctx.now);
  if (*arrived == 0) {
    return Status::FailedPrecondition(
        "Pick called with no arrived request in the queue");
  }
  return Status::OK();
}

/// Shared scan over the arrived prefix: minimal score wins, strict `<` so
/// the earliest queue position (arrival order, then request id) takes
/// ties. ScoreFn: size_t position -> double.
template <typename ScoreFn>
size_t ArgMinScore(size_t arrived, ScoreFn&& score) {
  size_t best = 0;
  double best_score = score(size_t{0});
  for (size_t i = 1; i < arrived; ++i) {
    const double s = score(i);
    if (s < best_score) {
      best = i;
      best_score = s;
    }
  }
  return best;
}

/// True when the oracle reports an open breaker for any template involved
/// in this admission decision — the running mix or any arrived candidate.
/// Contention-aware scores would then be built on untrusted predictions,
/// so the contention-aware policies degrade to shortest-isolated ordering
/// (isolated latencies come from measured profiles, not the QS models, and
/// stay trustworthy when a model goes bad).
bool OracleReportsDegraded(const RequestQueue& queue, size_t arrived,
                           const SchedContext& ctx) {
  for (int t : *ctx.running_templates) {
    if (ctx.oracle->Degraded(t)) return true;
  }
  for (size_t i = 0; i < arrived; ++i) {
    if (ctx.oracle->Degraded(queue.at(i).template_index)) return true;
  }
  return false;
}

/// Shortest-isolated ordering, shared by the degraded paths.
size_t PickShortestIsolated(const RequestQueue& queue, size_t arrived,
                            const SchedContext& ctx) {
  return ArgMinScore(arrived, [&](size_t i) {
    return ctx.oracle->IsolatedLatency(queue.at(i).template_index).value();
  });
}

/// Predicted added completion time of admitting `r` into the live mix M:
/// the candidate's own predicted latency inside M, plus the predicted
/// latency inflation it inflicts on every query already running
/// (Σ over q in M of L(q | M - q + r) - L(q | M - q)). The second term is
/// what distinguishes contention-awareness from shortest-job-first: a
/// short candidate that antagonizes the running mix loses to a slightly
/// longer one that shares its scans. Every term is a mix-oracle probe.
double GreedyScore(const Request& r, const SchedContext& ctx) {
  const std::vector<int>& mix = *ctx.running_templates;
  const double in_mix =
      ctx.oracle->PredictInMix(r.template_index, mix).value();
  const double isolated =
      ctx.oracle->IsolatedLatency(r.template_index).value();
  return in_mix / isolated;
}

class FifoPolicy : public Policy {
 public:
  const std::string& name() const override {
    static const std::string kName = "fifo";
    return kName;
  }
  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) override {
    size_t arrived = 0;
    CONTENDER_RETURN_IF_ERROR(ValidateContext(queue, ctx, &arrived));
    // The queue is sorted by (arrival, id): position 0 is FIFO order.
    return size_t{0};
  }
};

class ShortestIsolatedFirstPolicy : public Policy {
 public:
  const std::string& name() const override {
    static const std::string kName = "shortest-isolated";
    return kName;
  }
  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) override {
    size_t arrived = 0;
    CONTENDER_RETURN_IF_ERROR(ValidateContext(queue, ctx, &arrived));
    return PickShortestIsolated(queue, arrived, ctx);
  }
};

class GreedyContentionPolicy : public Policy {
 public:
  const std::string& name() const override {
    static const std::string kName = "greedy-contention";
    return kName;
  }
  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) override {
    size_t arrived = 0;
    CONTENDER_RETURN_IF_ERROR(ValidateContext(queue, ctx, &arrived));
    if (OracleReportsDegraded(queue, arrived, ctx)) {
      return PickShortestIsolated(queue, arrived, ctx);
    }
    return ArgMinScore(
        arrived, [&](size_t i) { return GreedyScore(queue.at(i), ctx); });
  }
};

class DeadlineAwarePolicy : public Policy {
 public:
  const std::string& name() const override {
    static const std::string kName = "deadline-aware";
    return kName;
  }
  StatusOr<size_t> Pick(const RequestQueue& queue,
                        const SchedContext& ctx) override {
    size_t arrived = 0;
    CONTENDER_RETURN_IF_ERROR(ValidateContext(queue, ctx, &arrived));
    if (OracleReportsDegraded(queue, arrived, ctx)) {
      return PickShortestIsolated(queue, arrived, ctx);
    }
    bool any_deadline = false;
    for (size_t i = 0; i < arrived && !any_deadline; ++i) {
      any_deadline = queue.at(i).deadline.has_value();
    }
    if (!any_deadline) {
      // Nothing to protect: behave exactly like greedy.
      return ArgMinScore(
          arrived, [&](size_t i) { return GreedyScore(queue.at(i), ctx); });
    }
    // Earliest predicted slack first; best-effort requests rank after every
    // deadline-carrying one (infinite slack).
    return ArgMinScore(arrived, [&](size_t i) {
      const Request& r = queue.at(i);
      if (!r.deadline.has_value()) {
        return std::numeric_limits<double>::infinity();
      }
      const units::Seconds predicted =
          ctx.oracle->PredictInMix(r.template_index, *ctx.running_templates);
      return (*r.deadline - ctx.now - predicted).value();
    });
  }
};

}  // namespace

std::unique_ptr<Policy> MakePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo:
      return std::make_unique<FifoPolicy>();
    case PolicyKind::kShortestIsolatedFirst:
      return std::make_unique<ShortestIsolatedFirstPolicy>();
    case PolicyKind::kGreedyContention:
      return std::make_unique<GreedyContentionPolicy>();
    case PolicyKind::kDeadlineAware:
      return std::make_unique<DeadlineAwarePolicy>();
  }
  CONTENDER_CHECK(false) << "unknown PolicyKind";
  return nullptr;
}

const std::string& PolicyKindName(PolicyKind kind) {
  return MakePolicy(kind)->name();
}

const std::vector<PolicyKind>& AllPolicyKinds() {
  static const std::vector<PolicyKind>* kinds = new std::vector<PolicyKind>{
      PolicyKind::kFifo, PolicyKind::kShortestIsolatedFirst,
      PolicyKind::kGreedyContention, PolicyKind::kDeadlineAware};
  return *kinds;
}

}  // namespace contender::sched
