#include "sched/policy.h"

#include <limits>
#include <vector>

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

/// Per-template marks for one pick, kept by the policy so a pick
/// allocates nothing once the buffers have grown.
class TemplateMarks {
 public:
  /// Starts a pick over templates [0, num_templates) with nothing marked.
  void Reset(int num_templates) {
    marked_.assign(static_cast<size_t>(num_templates), false);
    value_.resize(static_cast<size_t>(num_templates));
  }

  /// Marks template `t`; true when it was not yet marked in this pick.
  bool Mark(int t) {
    CONTENDER_CHECK(t >= 0 && static_cast<size_t>(t) < marked_.size())
        << "Pick: unknown template index " << t;
    if (marked_[static_cast<size_t>(t)]) return false;
    marked_[static_cast<size_t>(t)] = true;
    return true;
  }

  /// A per-template slot for a value computed in this pick.
  double& value(int t) { return value_[static_cast<size_t>(t)]; }

 private:
  std::vector<bool> marked_;
  std::vector<double> value_;
};

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

/// ArgMinScore for a score that depends only on the request's template
/// (given the running mix): scores the first arrived request of each
/// template and skips the rest. A skipped request ties its template's
/// first occurrence, which is already at or above the running best (or
/// NaN), so it could never win the strict `<`: the pick is the position
/// the all-positions scan returns, ties, infinities and NaN included.
/// ScoreFn: int template index -> double.
template <typename ScoreFn>
size_t ArgMinByTemplate(const RequestQueue& queue, size_t arrived,
                        const SchedContext& ctx, TemplateMarks* marks,
                        ScoreFn&& score) {
  marks->Reset(ctx.oracle->num_templates());
  return ArgMinScore(arrived, [&](size_t i) {
    const int t = queue.at(i).template_index;
    return marks->Mark(t) ? score(t)
                          : std::numeric_limits<double>::infinity();
  });
}

/// True when the oracle reports an open breaker for any template involved
/// in this admission decision — the running mix or any arrived candidate.
/// Contention-aware scores would then be built on untrusted predictions,
/// so the contention-aware policies degrade to shortest-isolated ordering
/// (isolated latencies come from measured profiles, not the QS models, and
/// stay trustworthy when a model goes bad). Each template is asked once.
bool OracleReportsDegraded(const RequestQueue& queue, size_t arrived,
                           const SchedContext& ctx, TemplateMarks* marks) {
  for (int t : *ctx.running_templates) {
    if (ctx.oracle->Degraded(t)) return true;
  }
  marks->Reset(ctx.oracle->num_templates());
  for (size_t i = 0; i < arrived; ++i) {
    const int t = queue.at(i).template_index;
    if (marks->Mark(t) && ctx.oracle->Degraded(t)) return true;
  }
  return false;
}

/// Shortest-isolated ordering, shared by the degraded paths.
size_t PickShortestIsolated(const RequestQueue& queue, size_t arrived,
                            const SchedContext& ctx, TemplateMarks* marks) {
  return ArgMinByTemplate(queue, arrived, ctx, marks, [&](int t) {
    return ctx.oracle->IsolatedLatency(t).value();
  });
}

/// Predicted slowdown of admitting template `t` into the live mix M:
/// L(t | M) / L_iso(t), one mix-oracle probe. A template whose scans the
/// running mix shares slows down less than one it contends with, which is
/// what separates this from shortest-job-first.
double GreedyScore(int t, const SchedContext& ctx) {
  const std::vector<int>& mix = *ctx.running_templates;
  const double in_mix = ctx.oracle->PredictInMix(t, mix).value();
  const double isolated = ctx.oracle->IsolatedLatency(t).value();
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
    return PickShortestIsolated(queue, arrived, ctx, &marks_);
  }

 private:
  TemplateMarks marks_;
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
    if (OracleReportsDegraded(queue, arrived, ctx, &marks_)) {
      return PickShortestIsolated(queue, arrived, ctx, &marks_);
    }
    return ArgMinByTemplate(queue, arrived, ctx, &marks_,
                            [&](int t) { return GreedyScore(t, ctx); });
  }

 private:
  TemplateMarks marks_;
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
    if (OracleReportsDegraded(queue, arrived, ctx, &marks_)) {
      return PickShortestIsolated(queue, arrived, ctx, &marks_);
    }
    bool any_deadline = false;
    for (size_t i = 0; i < arrived && !any_deadline; ++i) {
      any_deadline = queue.at(i).deadline.has_value();
    }
    if (!any_deadline) {
      // Nothing to protect: behave exactly like greedy.
      return ArgMinByTemplate(queue, arrived, ctx, &marks_,
                              [&](int t) { return GreedyScore(t, ctx); });
    }
    // Earliest predicted slack first; best-effort requests rank after every
    // deadline-carrying one (infinite slack). Deadlines differ per request,
    // so every request is scored, but each template's in-mix latency is
    // predicted once per pick.
    marks_.Reset(ctx.oracle->num_templates());
    return ArgMinScore(arrived, [&](size_t i) {
      const Request& r = queue.at(i);
      if (!r.deadline.has_value()) {
        return std::numeric_limits<double>::infinity();
      }
      const bool first = marks_.Mark(r.template_index);
      double& predicted = marks_.value(r.template_index);
      if (first) {
        predicted = ctx.oracle
                        ->PredictInMix(r.template_index,
                                       *ctx.running_templates)
                        .value();
      }
      return (*r.deadline - ctx.now - units::Seconds(predicted)).value();
    });
  }

 private:
  TemplateMarks marks_;
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
