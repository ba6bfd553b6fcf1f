// Admission-control requests: one queued execution of a workload template,
// optionally carrying an SLA deadline, plus the waiting queue the policies
// choose from and a deterministic seeded arrival-stream generator.

#ifndef CONTENDER_SCHED_REQUEST_H_
#define CONTENDER_SCHED_REQUEST_H_

#include <optional>
#include <vector>

#include "overload/shed_reason.h"
#include "util/random.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender::sched {

/// One query execution awaiting admission.
struct Request {
  /// Dense identity in [0, stream size); outcome slots are keyed by it.
  int request_id = -1;
  /// Workload template index (position, not paper id).
  int template_index = -1;
  /// Issuing tenant. Single-tenant streams leave the default; the fleet
  /// layer stamps it so per-tenant metrics and blame attribution can key
  /// on it. Policies never read it — placement is tenant-blind, only
  /// accounting (and admission quotas, enforced upstream by the fleet
  /// router) see tenants.
  int tenant_id = 0;
  /// When the request becomes admissible.
  units::Seconds arrival_time;
  /// Absolute SLA deadline for completion; nullopt = best-effort.
  std::optional<units::Seconds> deadline;
  /// Service tier for the overload brownout ladder. Stamped by the fleet
  /// population (per tenant); single-node streams keep the default.
  /// Policies never read it — like tenant_id, only admission control and
  /// accounting see it.
  overload::Criticality criticality = overload::Criticality::kStandard;
};

/// Options for GenerateArrivals. All randomness flows from the seed through
/// one util/random Rng, so the same options always yield the same stream.
struct ArrivalOptions {
  int num_requests = 32;
  /// Mean of the exponential interarrival gap (Poisson arrivals).
  units::Seconds mean_interarrival{20.0};
  /// Probability that a request carries an SLA deadline.
  double deadline_probability = 0.0;
  /// Deadline = arrival + slack * reference latency of the drawn template,
  /// with slack uniform in [min_slack, max_slack).
  double min_slack = 2.0;
  double max_slack = 6.0;
  uint64_t seed = 42;
};

/// Deterministic arrival stream over `reference_latencies.size()` templates:
/// template drawn uniformly per request, exponential gaps, Bernoulli
/// deadlines with uniform slack against the template's reference (isolated)
/// latency. Request ids are assigned in arrival order starting at 0.
/// InvalidArgument when `reference_latencies` is empty, `num_requests` is
/// negative, the mean interarrival gap is non-positive (the arrival rate
/// 1/mean would be undefined or non-positive), the deadline probability is
/// outside [0, 1], or the slack band is inverted.
StatusOr<std::vector<Request>> GenerateArrivals(
    const std::vector<units::Seconds>& reference_latencies,
    const ArrivalOptions& options);

/// The waiting queue: every generated-but-not-yet-admitted request, kept
/// sorted by (arrival time, request id). Because of the sort order, the
/// requests admissible at time t are exactly a leading prefix.
class RequestQueue {
 public:
  RequestQueue() = default;
  /// Takes ownership of `requests` and sorts them into queue order.
  explicit RequestQueue(std::vector<Request> requests);

  /// Inserts preserving (arrival, id) order.
  void Push(const Request& request);

  [[nodiscard]] bool empty() const { return head_ == requests_.size(); }
  [[nodiscard]] size_t size() const { return requests_.size() - head_; }
  [[nodiscard]] const Request& at(size_t i) const {
    return requests_[head_ + i];
  }

  /// Number of leading requests with arrival_time <= t (the admissible
  /// prefix at time t). O(log n).
  [[nodiscard]] size_t ArrivedBy(units::Seconds t) const;

  /// Earliest arrival among queued requests; queue must be non-empty.
  [[nodiscard]] units::Seconds NextArrival() const;

  /// Removes and returns the request at position i. Costs O(i): the
  /// queue holds every future arrival, and taking near the head must not
  /// shift them all.
  Request Take(size_t i);

 private:
  // Queued requests are requests_[head_..]; taken ones below head_ are
  // dead slots.
  std::vector<Request> requests_;
  size_t head_ = 0;
};

}  // namespace contender::sched

#endif  // CONTENDER_SCHED_REQUEST_H_
