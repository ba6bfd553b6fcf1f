#include "sched/request.h"

#include <algorithm>
#include <utility>

#include "scenario/scenario.h"
#include "util/logging.h"

namespace contender::sched {

namespace {

// Queue order: arrival time, then request id (insertion order of the
// generator), so ties are deterministic.
bool QueueBefore(const Request& a, const Request& b) {
  if (a.arrival_time != b.arrival_time) {
    return a.arrival_time < b.arrival_time;
  }
  return a.request_id < b.request_id;
}

}  // namespace

StatusOr<std::vector<Request>> GenerateArrivals(
    const std::vector<units::Seconds>& reference_latencies,
    const ArrivalOptions& options) {
  // Delegates to the PoissonSteady scenario, the bit-exact successor of
  // the sampler that used to live here (template → gap → deadline draw
  // order, first request at t = 0). The scenario's single-node mode seeds
  // its one tenant directly from options.seed, so the stream is identical
  // draw for draw to every pre-scenario release.
  const scenario::Scenario* poisson =
      scenario::FindScenario(scenario::kPoissonSteadyName);
  CONTENDER_CHECK(poisson != nullptr)
      << "poisson-steady missing from the scenario registry";
  scenario::ScenarioParams params;
  params.num_requests = options.num_requests;
  params.mean_interarrival = options.mean_interarrival;
  params.deadline_probability = options.deadline_probability;
  params.min_slack = options.min_slack;
  params.max_slack = options.max_slack;
  params.seed = options.seed;
  CONTENDER_ASSIGN_OR_RETURN(scenario::ScenarioTrace trace,
                             poisson->GenerateTrace(reference_latencies,
                                                    params));
  return std::move(trace.requests);
}

RequestQueue::RequestQueue(std::vector<Request> requests)
    : requests_(std::move(requests)) {
  std::stable_sort(requests_.begin(), requests_.end(), QueueBefore);
}

void RequestQueue::Push(const Request& request) {
  auto pos = std::upper_bound(
      requests_.begin() + static_cast<std::ptrdiff_t>(head_), requests_.end(),
      request, QueueBefore);
  requests_.insert(pos, request);
}

size_t RequestQueue::ArrivedBy(units::Seconds t) const {
  // Queue order sorts by arrival first, so the admissible requests are
  // the prefix before the first arrival later than t.
  const auto first = requests_.begin() + static_cast<std::ptrdiff_t>(head_);
  const auto end = std::upper_bound(
      first, requests_.end(), t,
      [](units::Seconds time, const Request& r) {
        return time < r.arrival_time;
      });
  return static_cast<size_t>(end - first);
}

units::Seconds RequestQueue::NextArrival() const {
  CONTENDER_CHECK(!empty());
  return at(0).arrival_time;
}

Request RequestQueue::Take(size_t i) {
  CONTENDER_CHECK(i < size());
  const auto first = requests_.begin() + static_cast<std::ptrdiff_t>(head_);
  const auto pos = first + static_cast<std::ptrdiff_t>(i);
  Request r = std::move(*pos);
  // Shift the i requests ahead of it back one slot, keeping queue order.
  std::move_backward(first, pos, pos + 1);
  ++head_;
  return r;
}

}  // namespace contender::sched
