// Reference test for the admission policies' template-deduplicated picks.
//
// Pick scores each template once: the greedy and shortest-isolated scores
// depend only on (template, running mix), so a later request of an
// already-scored template can never beat its first occurrence under the
// strict `<` scan. This test keeps a copy of the all-positions scan (every
// arrived request scored, the arrived prefix counted linearly) and
// requires the shipped policies to return the same position on seeded
// random queues: duplicate templates, equal arrival times, running mixes
// at MPL 1-5, deadlines on and off, and health signals with some templates
// degraded.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "sched/mix_oracle.h"
#include "sched/policy.h"
#include "sched/request.h"
#include "test_support.h"
#include "util/random.h"

namespace contender::sched {
namespace {

using contender::testing::SharedPredictor;

/// Marks a fixed template set degraded (breaker open).
class FakeHealth : public TemplateHealth {
 public:
  explicit FakeHealth(std::vector<bool> degraded)
      : degraded_(std::move(degraded)) {}
  bool Degraded(int template_index) const override {
    return degraded_[static_cast<size_t>(template_index)];
  }

 private:
  const std::vector<bool> degraded_;
};

// ---- The all-positions reference ---------------------------------------

size_t ReferenceArrivedBy(const RequestQueue& queue, units::Seconds t) {
  size_t n = 0;
  while (n < queue.size() && queue.at(n).arrival_time <= t) ++n;
  return n;
}

template <typename ScoreFn>
size_t ReferenceArgMin(size_t arrived, ScoreFn&& score) {
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

bool ReferenceDegraded(const RequestQueue& queue, size_t arrived,
                       const SchedContext& ctx) {
  for (int t : *ctx.running_templates) {
    if (ctx.oracle->Degraded(t)) return true;
  }
  for (size_t i = 0; i < arrived; ++i) {
    if (ctx.oracle->Degraded(queue.at(i).template_index)) return true;
  }
  return false;
}

size_t ReferenceShortestIsolated(const RequestQueue& queue, size_t arrived,
                                 const SchedContext& ctx) {
  return ReferenceArgMin(arrived, [&](size_t i) {
    return ctx.oracle->IsolatedLatency(queue.at(i).template_index).value();
  });
}

double ReferenceGreedyScore(const Request& r, const SchedContext& ctx) {
  const double in_mix =
      ctx.oracle->PredictInMix(r.template_index, *ctx.running_templates)
          .value();
  const double isolated =
      ctx.oracle->IsolatedLatency(r.template_index).value();
  return in_mix / isolated;
}

size_t ReferencePick(PolicyKind kind, const RequestQueue& queue,
                     const SchedContext& ctx) {
  const size_t arrived = ReferenceArrivedBy(queue, ctx.now);
  CONTENDER_CHECK(arrived > 0);
  switch (kind) {
    case PolicyKind::kFifo:
      return 0;
    case PolicyKind::kShortestIsolatedFirst:
      return ReferenceShortestIsolated(queue, arrived, ctx);
    case PolicyKind::kGreedyContention:
      if (ReferenceDegraded(queue, arrived, ctx)) {
        return ReferenceShortestIsolated(queue, arrived, ctx);
      }
      return ReferenceArgMin(arrived, [&](size_t i) {
        return ReferenceGreedyScore(queue.at(i), ctx);
      });
    case PolicyKind::kDeadlineAware: {
      if (ReferenceDegraded(queue, arrived, ctx)) {
        return ReferenceShortestIsolated(queue, arrived, ctx);
      }
      bool any_deadline = false;
      for (size_t i = 0; i < arrived && !any_deadline; ++i) {
        any_deadline = queue.at(i).deadline.has_value();
      }
      if (!any_deadline) {
        return ReferenceArgMin(arrived, [&](size_t i) {
          return ReferenceGreedyScore(queue.at(i), ctx);
        });
      }
      return ReferenceArgMin(arrived, [&](size_t i) {
        const Request& r = queue.at(i);
        if (!r.deadline.has_value()) {
          return std::numeric_limits<double>::infinity();
        }
        const units::Seconds predicted = ctx.oracle->PredictInMix(
            r.template_index, *ctx.running_templates);
        return (*r.deadline - ctx.now - predicted).value();
      });
    }
  }
  CONTENDER_CHECK(false) << "unknown PolicyKind";
  return 0;
}

// ---- Random cases --------------------------------------------------------

struct Case {
  std::vector<Request> requests;
  /// Positions taken from the queue before the pick (each < its size).
  std::vector<size_t> takes;
  std::vector<int> running;
  double now = 0.0;
};

Case DrawCase(Rng* rng, int num_templates, bool deadlines) {
  Case c;
  // A narrow template palette forces many duplicates; a wide one few.
  const int palette = rng->UniformInt(uint64_t{2}) == 0
                          ? 1 + static_cast<int>(rng->UniformInt(uint64_t{4}))
                          : num_templates;
  const int first = static_cast<int>(
      rng->UniformInt(static_cast<uint64_t>(num_templates - palette + 1)));
  const int n = 1 + static_cast<int>(rng->UniformInt(uint64_t{60}));
  for (int id = 0; id < n; ++id) {
    Request r;
    r.request_id = id;
    r.template_index =
        first + static_cast<int>(rng->UniformInt(
                    static_cast<uint64_t>(palette)));
    // Whole-second arrivals over a short window: many equal times.
    r.arrival_time =
        units::Seconds(static_cast<double>(rng->UniformInt(uint64_t{20})));
    if (deadlines && rng->UniformInt(uint64_t{2}) == 0) {
      r.deadline = r.arrival_time + units::Seconds(rng->Uniform(0.0, 400.0));
    }
    c.requests.push_back(r);
  }
  const int num_takes = static_cast<int>(rng->UniformInt(uint64_t{4}));
  for (int i = 0; i < num_takes && i + 1 < n; ++i) {
    c.takes.push_back(static_cast<size_t>(
        rng->UniformInt(static_cast<uint64_t>(n - i))));
  }
  // MPL 1-5: zero to four queries already running.
  const int mix = static_cast<int>(rng->UniformInt(uint64_t{5}));
  for (int i = 0; i < mix; ++i) {
    c.running.push_back(static_cast<int>(
        rng->UniformInt(static_cast<uint64_t>(num_templates))));
  }
  c.now = static_cast<double>(rng->UniformInt(uint64_t{20}));
  return c;
}

/// Runs `cases` random picks per policy against `oracle`, reusing one
/// policy object per kind across all of them (as a node does).
void ExpectPicksMatchReference(MixOracle* oracle, uint64_t seed, int cases,
                               bool deadlines) {
  std::vector<std::unique_ptr<Policy>> policies;
  for (PolicyKind kind : AllPolicyKinds()) {
    policies.push_back(MakePolicy(kind));
  }
  Rng rng(seed);
  int checked = 0;
  for (int k = 0; k < cases; ++k) {
    const Case c = DrawCase(&rng, oracle->num_templates(), deadlines);
    RequestQueue queue(c.requests);
    for (size_t take : c.takes) {
      if (take < queue.size()) (void)queue.Take(take);
    }
    SchedContext ctx;
    ctx.now = units::Seconds(c.now);
    ctx.running_templates = &c.running;
    ctx.oracle = oracle;
    if (ReferenceArrivedBy(queue, ctx.now) == 0) continue;
    for (size_t p = 0; p < policies.size(); ++p) {
      const PolicyKind kind = AllPolicyKinds()[p];
      auto pick = policies[p]->Pick(queue, ctx);
      ASSERT_TRUE(pick.ok()) << pick.status();
      ASSERT_EQ(*pick, ReferencePick(kind, queue, ctx))
          << PolicyKindName(kind) << ", case " << k;
    }
    ++checked;
  }
  EXPECT_GT(checked, cases / 2);
}

TEST(PickReferenceTest, HealthyPicksMatchWithoutDeadlines) {
  MixOracle oracle(&SharedPredictor());
  ExpectPicksMatchReference(&oracle, 11, 1500, /*deadlines=*/false);
}

TEST(PickReferenceTest, HealthyPicksMatchWithDeadlines) {
  MixOracle oracle(&SharedPredictor());
  ExpectPicksMatchReference(&oracle, 12, 1500, /*deadlines=*/true);
}

TEST(PickReferenceTest, PicksMatchWithSomeTemplatesDegraded) {
  const int n = static_cast<int>(SharedPredictor().profiles().size());
  Rng rng(13);
  for (int round = 0; round < 6; ++round) {
    std::vector<bool> degraded(static_cast<size_t>(n), false);
    // One to three open breakers per round.
    const int open = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    for (int i = 0; i < open; ++i) {
      degraded[rng.UniformInt(static_cast<uint64_t>(n))] = true;
    }
    FakeHealth health(degraded);
    MixOracle::Options options;
    options.health = &health;
    MixOracle oracle(&SharedPredictor(), options);
    ExpectPicksMatchReference(&oracle, 100 + static_cast<uint64_t>(round),
                              300, /*deadlines=*/round % 2 == 0);
  }
}

TEST(PickReferenceTest, ScoringPoliciesProbeEachTemplateOnce) {
  // Forty arrived requests of two templates: greedy probes the oracle
  // twice, not forty times.
  MixOracle oracle(&SharedPredictor());
  std::vector<Request> requests;
  for (int id = 0; id < 40; ++id) {
    Request r;
    r.request_id = id;
    r.template_index = 3 + id % 2;
    r.arrival_time = units::Seconds(0.0);
    requests.push_back(r);
  }
  const RequestQueue queue(requests);
  const std::vector<int> running = {1, 7};
  SchedContext ctx;
  ctx.now = units::Seconds(1.0);
  ctx.running_templates = &running;
  ctx.oracle = &oracle;
  auto greedy = MakePolicy(PolicyKind::kGreedyContention);
  ASSERT_TRUE(greedy->Pick(queue, ctx).ok());
  EXPECT_EQ(oracle.misses(), 2u);
}

}  // namespace
}  // namespace contender::sched
