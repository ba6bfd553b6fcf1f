#include "fleet/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "sched/mix_oracle.h"
#include "test_support.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace contender::fleet {

/// Reaches into a router's predicted node states (a friend of Router).
class RouterPeer {
 public:
  /// Replaces node `n`'s predicted state: running queries with the given
  /// completions and templates, then a FIFO backlog of the given templates.
  static void SetNode(Router* router, int n,
                      const std::vector<double>& completions,
                      const std::vector<int>& running_templates,
                      const std::vector<int>& backlog_templates) {
    Router::NodeState& node = router->nodes_[static_cast<size_t>(n)];
    node.running.clear();
    node.backlog.clear();
    node.backlog_isolated.clear();
    node.isolated_head = 0;
    for (size_t i = 0; i < completions.size(); ++i) {
      Router::PredictedQuery q;
      q.completion = units::Seconds(completions[i]);
      q.template_index = running_templates[i];
      q.request_id = static_cast<int>(i);
      node.running.push_back(q);
    }
    for (int t : backlog_templates) {
      sched::Request r;
      r.template_index = t;
      node.backlog.push_back(r);
      node.backlog_isolated.push_back(
          router->isolated_[static_cast<size_t>(t)]);
    }
  }

  /// True when every node's flat isolated-latency array holds exactly the
  /// isolated latency of each backlogged request, in backlog order.
  static bool IsolatedInStepWithBacklog(const Router& router) {
    for (const Router::NodeState& node : router.nodes_) {
      if (node.isolated_head > node.backlog_isolated.size() ||
          node.backlog_isolated.size() - node.isolated_head !=
              node.backlog.size()) {
        return false;
      }
      for (size_t i = 0; i < node.backlog.size(); ++i) {
        const int t = node.backlog[i].template_index;
        if (node.backlog_isolated[node.isolated_head + i] !=
            router.isolated_[static_cast<size_t>(t)]) {
          return false;
        }
      }
    }
    return true;
  }

  static double PredictedWait(const Router& router, int n,
                              units::Seconds now) {
    return router.PredictedWait(router.nodes_[static_cast<size_t>(n)], now);
  }
};

namespace {

using contender::testing::SharedPredictor;

sched::Request MakeRequest(int id, int template_index, double arrival,
                           int tenant = 0) {
  sched::Request r;
  r.request_id = id;
  r.template_index = template_index;
  r.tenant_id = tenant;
  r.arrival_time = units::Seconds(arrival);
  return r;
}

/// Marks a fixed template set degraded (breaker open).
class FakeHealth : public sched::TemplateHealth {
 public:
  explicit FakeHealth(std::vector<int> degraded)
      : degraded_(std::move(degraded)) {}
  bool Degraded(int template_index) const override {
    for (int t : degraded_) {
      if (t == template_index) return true;
    }
    return false;
  }

 private:
  const std::vector<int> degraded_;
};

TEST(RouterTest, RoundRobinCyclesOverNodes) {
  sched::MixOracle oracle(&SharedPredictor());
  RouterOptions options;
  options.num_nodes = 3;
  options.policy = RoutePolicy::kRoundRobin;
  Router router(&oracle, options);
  for (int i = 0; i < 9; ++i) {
    auto node = router.Route(MakeRequest(i, 0, 0.0));
    ASSERT_TRUE(node.ok()) << node.status();
    EXPECT_EQ(*node, i % 3);
  }
  EXPECT_EQ(router.stats().routed, 9u);
  EXPECT_EQ(router.stats().rejected, 0u);
}

TEST(RouterTest, RejectsNonDenseIdsAndTimeTravel) {
  sched::MixOracle oracle(&SharedPredictor());
  Router router(&oracle, RouterOptions{});
  ASSERT_TRUE(router.Route(MakeRequest(0, 0, 10.0)).ok());
  EXPECT_FALSE(router.Route(MakeRequest(5, 0, 11.0)).ok());  // gap in ids
  EXPECT_FALSE(router.Route(MakeRequest(1, 0, 9.0)).ok());   // backwards
  EXPECT_FALSE(router.Route(MakeRequest(1, -1, 10.0)).ok());  // no template
  EXPECT_FALSE(
      router.Route(MakeRequest(1, oracle.num_templates(), 10.0)).ok());
  ASSERT_TRUE(router.Route(MakeRequest(1, 0, 10.0)).ok());   // ties are fine
}

TEST(RouterTest, ContentionAwareSpreadsLoadOffBusyNodes) {
  sched::MixOracle oracle(&SharedPredictor());
  RouterOptions options;
  options.num_nodes = 2;
  options.policy = RoutePolicy::kContentionAware;
  Router router(&oracle, options);
  // Simultaneous arrivals: each placement inflates the predicted slowdown
  // of the node it lands on, so the next request prefers the other node.
  auto first = router.Route(MakeRequest(0, 2, 0.0));
  auto second = router.Route(MakeRequest(1, 2, 0.0));
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_NE(*first, *second);
}

TEST(RouterTest, LeastLoadedPicksTheEmptiestNode) {
  sched::MixOracle oracle(&SharedPredictor());
  RouterOptions options;
  options.num_nodes = 3;
  options.policy = RoutePolicy::kLeastLoaded;
  Router router(&oracle, options);
  ASSERT_TRUE(router.Route(MakeRequest(0, 0, 0.0)).ok());
  ASSERT_TRUE(router.Route(MakeRequest(1, 0, 0.0)).ok());
  ASSERT_TRUE(router.Route(MakeRequest(2, 0, 0.0)).ok());
  // All nodes hold one outstanding request; the tie resolves to node 0.
  auto fourth = router.Route(MakeRequest(3, 0, 0.0));
  ASSERT_TRUE(fourth.ok()) << fourth.status();
  EXPECT_EQ(*fourth, 0);
  EXPECT_EQ(router.Outstanding(0), 2);
}

TEST(RouterTest, TenantQuotaRejectsAtTheDoor) {
  sched::MixOracle oracle(&SharedPredictor());
  RouterOptions options;
  options.num_nodes = 2;
  options.tenant_quota = 2;
  Router router(&oracle, options);
  ASSERT_TRUE(router.Route(MakeRequest(0, 0, 0.0, /*tenant=*/1)).ok());
  ASSERT_TRUE(router.Route(MakeRequest(1, 0, 0.0, /*tenant=*/1)).ok());
  auto over = router.Route(MakeRequest(2, 0, 0.0, /*tenant=*/1));
  ASSERT_TRUE(over.ok()) << over.status();
  EXPECT_EQ(*over, -1);
  EXPECT_TRUE(router.assignments()[2].rejected);
  // A different tenant is unaffected.
  auto other = router.Route(MakeRequest(3, 0, 0.0, /*tenant=*/2));
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_GE(*other, 0);
  EXPECT_EQ(router.stats().rejected, 1u);
  EXPECT_EQ(router.stats().routed, 3u);
}

TEST(RouterTest, DrainFailsOverPredictedBacklog) {
  sched::MixOracle oracle(&SharedPredictor());
  RouterOptions options;
  options.num_nodes = 2;
  options.target_mpl = 2;
  options.policy = RoutePolicy::kRoundRobin;
  Router router(&oracle, options);
  // Six simultaneous arrivals round-robin to 3 per node: 2 predicted
  // running + 1 backlogged each.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(router.Route(MakeRequest(i, 1, 0.0)).ok());
  }
  ASSERT_EQ(router.Outstanding(0), 3);
  ASSERT_EQ(router.Outstanding(1), 3);

  // Node 0's backlog holds request 4 (ids 0, 2, 4 landed there).
  ASSERT_TRUE(router.BeginDrain(0, units::Seconds(1.0)).ok());
  EXPECT_TRUE(router.draining(0));
  const Assignment& moved = router.assignments()[4];
  EXPECT_EQ(moved.node, 1);
  EXPECT_TRUE(moved.failed_over);
  EXPECT_EQ(moved.effective_arrival, units::Seconds(1.0));
  // Predicted-running queries stay on the draining node.
  EXPECT_EQ(router.assignments()[0].node, 0);
  EXPECT_FALSE(router.assignments()[0].failed_over);
  EXPECT_EQ(router.Outstanding(0), 2);
  EXPECT_EQ(router.Outstanding(1), 4);
  EXPECT_EQ(router.stats().failovers, 1u);
  ASSERT_EQ(router.stats().drains.size(), 1u);
  EXPECT_EQ(router.stats().drains[0].failovers, 1);

  // New arrivals only go to the healthy node; draining again is a no-op
  // and draining the last healthy node is refused.
  auto next = router.Route(MakeRequest(6, 1, 2.0));
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(*next, 1);
  EXPECT_TRUE(router.BeginDrain(0, units::Seconds(3.0)).ok());
  EXPECT_EQ(router.stats().drains.size(), 1u);
  EXPECT_EQ(router.BeginDrain(1, units::Seconds(3.0)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(router.BeginDrain(7, units::Seconds(3.0)).ok());
}

TEST(RouterTest, BacklogIsolatedArrayTracksPlaceAdvanceAndDrain) {
  sched::MixOracle oracle(&SharedPredictor());
  const int num_templates = oracle.num_templates();
  RouterOptions options;
  options.num_nodes = 3;
  options.target_mpl = 2;
  Router router(&oracle, options);
  Rng rng(17);
  // Bursts of simultaneous arrivals build backlogs; the gaps between them
  // let Advance promote (and compact) backlog heads; two drains clear a
  // node's backlog and re-place it elsewhere.
  double now = 0.0;
  for (int id = 0; id < 600; ++id) {
    if (id % 40 == 0) now += 30.0;
    const int t = static_cast<int>(rng.UniformInt(0, num_templates - 1));
    ASSERT_TRUE(router.Route(MakeRequest(id, t, now)).ok());
    ASSERT_TRUE(RouterPeer::IsolatedInStepWithBacklog(router)) << "id " << id;
    if (id == 250 || id == 450) {
      ASSERT_TRUE(router.BeginDrain(id == 250 ? 0 : 1,
                                    units::Seconds(now)).ok());
      ASSERT_TRUE(RouterPeer::IsolatedInStepWithBacklog(router));
    }
  }
  EXPECT_EQ(router.stats().drains.size(), 2u);
  EXPECT_GT(router.stats().failovers, 0u);
  EXPECT_GT(router.Outstanding(2), options.target_mpl);
}

TEST(RouterTest, DegradedTemplateDescendsTheLadder) {
  FakeHealth health({3});
  sched::MixOracle::Options oracle_options;
  oracle_options.health = &health;
  sched::MixOracle oracle(&SharedPredictor(), oracle_options);
  RouterOptions options;
  options.num_nodes = 2;
  options.policy = RoutePolicy::kContentionAware;
  Router router(&oracle, options);
  auto node = router.Route(MakeRequest(0, 3, 0.0));
  ASSERT_TRUE(node.ok()) << node.status();
  EXPECT_TRUE(router.assignments()[0].degraded);
  EXPECT_EQ(router.stats().degraded_routes, 1u);
  // A healthy template joining a mix that contains the degraded one also
  // routes on the ladder (the mix prediction is untrusted).
  auto second = router.Route(MakeRequest(1, 2, 0.0));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(router.stats().degraded_routes, 2u);
}

TEST(RouterTest, ChaosDrainReplaysBitExactly) {
  auto run = [] {
    sched::MixOracle oracle(&SharedPredictor());
    RouterOptions options;
    options.num_nodes = 4;
    options.policy = RoutePolicy::kContentionAware;
    Router router(&oracle, options);
    for (int i = 0; i < 40; ++i) {
      auto node = router.Route(MakeRequest(i, i % 5, 0.5 * i));
      CONTENDER_CHECK(node.ok()) << node.status();
    }
    return std::make_pair(std::vector<Assignment>(router.assignments()),
                          router.stats().drains);
  };

  auto& registry = FailPointRegistry::Global();
  registry.SetRootSeed(42);
  registry.ArmProbability("fleet.node.drain", 0.25);
  auto first = run();
  // Re-arming with the same root seed resets the evaluation counter, so
  // the fired subset — and every downstream failover — replays exactly.
  registry.SetRootSeed(42);
  registry.ArmProbability("fleet.node.drain", 0.25);
  auto second = run();
  registry.Disarm("fleet.node.drain");

  ASSERT_FALSE(first.second.empty()) << "chaos drain never fired";
  ASSERT_EQ(first.second.size(), second.second.size());
  for (size_t i = 0; i < first.second.size(); ++i) {
    EXPECT_EQ(first.second[i].node, second.second[i].node);
    EXPECT_EQ(first.second[i].time, second.second[i].time);
    EXPECT_EQ(first.second[i].failovers, second.second[i].failovers);
  }
  ASSERT_EQ(first.first.size(), second.first.size());
  for (size_t i = 0; i < first.first.size(); ++i) {
    EXPECT_EQ(first.first[i].node, second.first[i].node);
    EXPECT_EQ(first.first[i].failed_over, second.first[i].failed_over);
    EXPECT_EQ(first.first[i].effective_arrival,
              second.first[i].effective_arrival);
  }
}

/// The backlog replay as first written: a min-heap of slot-free instants,
/// popped and re-pushed once per backlogged request.
double HeapReplayWait(const sched::MixOracle& oracle, int target_mpl,
                      const std::vector<double>& completions,
                      const std::vector<int>& backlog, units::Seconds now) {
  if (static_cast<int>(completions.size()) < target_mpl) return 0.0;
  std::priority_queue<double, std::vector<double>, std::greater<>> slots;
  for (double c : completions) {
    slots.push(std::max(0.0, (units::Seconds(c) - now).value()));
  }
  for (int t : backlog) {
    const double freed = slots.top();
    slots.pop();
    slots.push(freed + oracle.IsolatedLatency(t).value());
  }
  return slots.top();
}

TEST(RouterTest, PredictedWaitMatchesTheHeapReplayBitForBit) {
  sched::MixOracle oracle(&SharedPredictor());
  const int num_templates = oracle.num_templates();
  Rng rng(2024);
  int checked = 0;
  for (int target_mpl = 1; target_mpl <= 5; ++target_mpl) {
    RouterOptions options;
    options.num_nodes = 1;
    options.target_mpl = target_mpl;
    Router router(&oracle, options);
    for (size_t depth : {0, 1, 2, 7, 100, 1000, 5000}) {
      for (int trial = 0; trial < 8; ++trial) {
        const units::Seconds now(100.0 + 0.5 * trial);
        // Completions on a coarse grid around `now`: equal completions,
        // zero remaining time (completion == now) and completions already
        // past (clamped to zero) all occur. Some trials leave a slot free.
        const int running =
            trial == 7 ? target_mpl - 1 : target_mpl;
        std::vector<double> completions;
        std::vector<int> running_templates;
        for (int i = 0; i < running; ++i) {
          completions.push_back(now.value() - 1.0 +
                                static_cast<double>(rng.UniformInt(
                                    uint64_t{4})));
          running_templates.push_back(static_cast<int>(
              rng.UniformInt(static_cast<uint64_t>(num_templates))));
        }
        if (trial == 0) completions.assign(completions.size(), now.value());
        std::vector<int> backlog;
        for (size_t i = 0; i < depth; ++i) {
          backlog.push_back(static_cast<int>(
              rng.UniformInt(static_cast<uint64_t>(num_templates))));
        }
        RouterPeer::SetNode(&router, 0, completions, running_templates,
                            backlog);
        const double wait = RouterPeer::PredictedWait(router, 0, now);
        const double reference =
            HeapReplayWait(oracle, target_mpl, completions, backlog, now);
        ASSERT_EQ(wait, reference)
            << "mpl " << target_mpl << ", depth " << depth << ", trial "
            << trial;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 5 * 7 * 8);
}

}  // namespace
}  // namespace contender::fleet
