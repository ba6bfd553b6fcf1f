// The closed admission loop: a policy chooses which queued request gets
// each free execution slot, sim::Engine executes the admitted queries, and
// every completion callback re-enters the policy. The simulator holds a
// target MPL, records per-request queue wait / latency / deadline outcome
// and the prediction each admission was based on, and is bit-exactly
// deterministic under a fixed seed (instance parameters are drawn once, in
// request-id order, so every policy executes the identical workload; each
// plan is compiled from its parameters at admission and released at
// completion, so a run holds only its running queries' plans).

#ifndef CONTENDER_SCHED_SIMULATOR_H_
#define CONTENDER_SCHED_SIMULATOR_H_

#include <vector>

#include "overload/node_control.h"
#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "sched/request.h"
#include "sim/config.h"
#include "util/statusor.h"
#include "util/units.h"
#include "workload/workload.h"

namespace contender::sched {

struct ScheduleOptions {
  /// Slots: admitted-and-unfinished queries are held at this level whenever
  /// the queue is non-empty. With the adaptive limiter on, this is the
  /// limiter's ceiling rather than the operating point.
  int target_mpl = 3;
  /// Seeds query-instance parameter draws and the engine.
  uint64_t seed = 42;
  /// Node-level overload control (DESIGN.md §16): AIMD admission limiting
  /// on the observed/predicted latency ratio and CoDel shedding of stale
  /// queue heads. Both off by default — existing schedules replay
  /// unchanged.
  overload::NodeOverloadOptions overload;
};

/// Everything recorded about one request's journey through the system.
struct RequestOutcome {
  Request request;
  /// When the slot was granted (== arrival for an idle-slot admission).
  units::Seconds admit_time;
  /// admit - arrival.
  units::Seconds queue_wait;
  /// Engine execution time (admit -> completion).
  units::Seconds execution_latency;
  /// arrival -> completion; what an SLA is written against.
  units::Seconds response_time;
  units::Seconds completion_time;
  /// The oracle's predicted-in-mix latency this admission was based on.
  units::Seconds predicted_latency;
  /// Mix size (other running queries) at the admission decision.
  int mix_size_at_admission = 0;
  bool completed = false;
  bool missed_deadline = false;
  /// Dropped by node-level overload control instead of executed; lint
  /// rule R10 requires shed_reason to be stamped alongside.
  bool shed = false;
  /// Why (meaningful only when `shed`).
  overload::ShedReason shed_reason = overload::ShedReason::kQueueDelay;
};

struct ScheduleResult {
  /// Indexed by request id.
  std::vector<RequestOutcome> outcomes;
  /// Last completion instant.
  units::Seconds makespan;
  /// Final state of the node's overload controllers for the run.
  int final_admission_limit = 0;
  uint64_t limit_increases = 0;
  uint64_t limit_decreases = 0;
  uint64_t queue_sheds = 0;
};

/// Event-driven admission controller over one workload and hardware model.
class ScheduleSimulator {
 public:
  ScheduleSimulator(const Workload* workload, const sim::SimConfig& config);

  /// Runs `requests` (ids must be dense 0..n-1; any order) to completion
  /// under `policy`, admitting through `oracle`. Decision instants are slot
  /// frees (completions) and arrivals into idle slots; the engine executes
  /// between decisions.
  StatusOr<ScheduleResult> Run(const std::vector<Request>& requests,
                               Policy* policy, MixOracle* oracle,
                               const ScheduleOptions& options) const;

 private:
  const Workload* workload_;
  sim::SimConfig config_;
};

}  // namespace contender::sched

#endif  // CONTENDER_SCHED_SIMULATOR_H_
