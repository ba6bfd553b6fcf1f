#include "fleet/blame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "fleet/node.h"
#include "test_support.h"

namespace contender::fleet {
namespace {

using contender::testing::DefaultConfig;
using contender::testing::PaperWorkload;
using contender::testing::SharedPredictor;

sched::Request MakeRequest(int id, int template_index, double arrival) {
  sched::Request r;
  r.request_id = id;
  r.template_index = template_index;
  r.arrival_time = units::Seconds(arrival);
  return r;
}

/// Runs one node over `assigned` and attributes blame.
std::vector<QueryBlame> RunAndBlame(
    const std::vector<sched::Request>& assigned, int target_mpl = 3) {
  NodeOptions options;
  options.target_mpl = target_mpl;
  Node node(&PaperWorkload(), DefaultConfig(), &SharedPredictor(), options);
  auto result = node.Run(assigned);
  CONTENDER_CHECK(result.ok()) << result.status();
  return ComputeNodeBlame(*result, node.oracle());
}

TEST(BlameTest, SharesSumToExcessExactly) {
  // A burst of mutually-contending queries at t = 0: MPL 3 forces
  // co-residency, so excess exists and must decompose conservatively.
  std::vector<sched::Request> assigned;
  for (int i = 0; i < 9; ++i) {
    assigned.push_back(MakeRequest(/*id=*/100 + i, /*template=*/i % 4,
                                   /*arrival=*/0.0));
  }
  auto blames = RunAndBlame(assigned);
  ASSERT_EQ(blames.size(), assigned.size());

  bool any_shares = false;
  for (const QueryBlame& blame : blames) {
    EXPECT_GE(blame.excess.value(), 0.0);
    EXPECT_DOUBLE_EQ(
        blame.excess.value(),
        std::max(0.0, (blame.execution_latency - blame.isolated_latency)
                          .value()));
    double attributed = 0.0;
    for (const BlameShare& share : blame.shares) {
      EXPECT_GT(share.seconds.value(), 0.0);
      EXPECT_NE(share.culprit_request, blame.request_id);
      EXPECT_GE(share.culprit_request, 100);
      EXPECT_LT(share.culprit_request, 109);
      EXPECT_GE(share.culprit_template, 0);
      attributed += share.seconds.value();
      any_shares = true;
    }
    // The invariant: self blame absorbs exactly the unattributed excess.
    EXPECT_DOUBLE_EQ(blame.self_blame.value() + attributed,
                     blame.excess.value());
    EXPECT_GE(blame.self_blame.value(), -1e-9);
  }
  EXPECT_TRUE(any_shares) << "no co-residency in a 9-query MPL-3 burst";
}

TEST(BlameTest, LoneQueryKeepsAllExcessAsSelfBlame) {
  auto blames = RunAndBlame({MakeRequest(0, 2, 0.0)});
  ASSERT_EQ(blames.size(), 1u);
  EXPECT_TRUE(blames[0].shares.empty());
  EXPECT_DOUBLE_EQ(blames[0].self_blame.value(), blames[0].excess.value());
}

TEST(BlameTest, DisjointQueriesBlameNobody) {
  // Arrivals far apart: no execution overlap, so even if a query runs
  // over its isolated estimate the excess stays self-attributed.
  std::vector<sched::Request> assigned;
  for (int i = 0; i < 3; ++i) {
    assigned.push_back(MakeRequest(i, i, 1e5 * i));
  }
  auto blames = RunAndBlame(assigned);
  for (const QueryBlame& blame : blames) {
    EXPECT_TRUE(blame.shares.empty());
    EXPECT_DOUBLE_EQ(blame.self_blame.value(), blame.excess.value());
  }
}

TEST(BlameTest, BlameIsDeterministic) {
  std::vector<sched::Request> assigned;
  for (int i = 0; i < 8; ++i) {
    assigned.push_back(MakeRequest(i, i % 5, 0.25 * i));
  }
  auto first = RunAndBlame(assigned);
  auto second = RunAndBlame(assigned);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].request_id, second[i].request_id);
    EXPECT_EQ(first[i].excess, second[i].excess);
    EXPECT_EQ(first[i].self_blame, second[i].self_blame);
    ASSERT_EQ(first[i].shares.size(), second[i].shares.size());
    for (size_t j = 0; j < first[i].shares.size(); ++j) {
      EXPECT_EQ(first[i].shares[j].culprit_request,
                second[i].shares[j].culprit_request);
      EXPECT_EQ(first[i].shares[j].seconds, second[i].shares[j].seconds);
    }
  }
}

TEST(BlameTest, CarriesTenantAndTemplateIdentity) {
  std::vector<sched::Request> assigned;
  for (int i = 0; i < 4; ++i) {
    sched::Request r = MakeRequest(i, i % 2, 0.0);
    r.tenant_id = i % 2 == 0 ? 7 : 9;
    assigned.push_back(r);
  }
  auto blames = RunAndBlame(assigned);
  for (const QueryBlame& blame : blames) {
    EXPECT_TRUE(blame.tenant_id == 7 || blame.tenant_id == 9);
    for (const BlameShare& share : blame.shares) {
      EXPECT_TRUE(share.culprit_tenant == 7 || share.culprit_tenant == 9);
      EXPECT_TRUE(share.culprit_template == 0 || share.culprit_template == 1);
    }
  }
}

/// The all-pairs attribution ComputeNodeBlame replaced: every outcome is
/// tested against every victim. Kept as the reference the sweep must
/// reproduce exactly, including the oracle probe sequence.
std::vector<QueryBlame> AllPairsBlame(const NodeResult& node,
                                      const sched::MixOracle& oracle) {
  const std::vector<sched::RequestOutcome>& outcomes =
      node.schedule.outcomes;
  std::vector<QueryBlame> blames;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const sched::RequestOutcome& victim = outcomes[i];
    QueryBlame blame;
    blame.request_id = node.global_ids[i];
    blame.tenant_id = victim.request.tenant_id;
    blame.template_index = victim.request.template_index;
    blame.isolated_latency =
        oracle.IsolatedLatency(victim.request.template_index);
    blame.execution_latency = victim.execution_latency;
    blame.excess = units::Seconds(std::max(
        0.0, (victim.execution_latency - blame.isolated_latency).value()));
    struct Candidate {
      size_t index;
      double overlap;
      double weight;
    };
    std::vector<Candidate> candidates;
    double weighted_sum = 0.0;
    double overlap_sum = 0.0;
    for (size_t j = 0; j < outcomes.size(); ++j) {
      if (j == i) continue;
      const double lo = std::max(victim.admit_time.value(),
                                 outcomes[j].admit_time.value());
      const double hi = std::min(victim.completion_time.value(),
                                 outcomes[j].completion_time.value());
      const double overlap = std::max(0.0, hi - lo);
      if (overlap <= 0.0) continue;
      const double antagonism = std::max(
          0.0, (oracle.PredictInMix(victim.request.template_index,
                                    {outcomes[j].request.template_index}) -
                blame.isolated_latency)
                   .value());
      candidates.push_back({j, overlap, overlap * antagonism});
      weighted_sum += overlap * antagonism;
      overlap_sum += overlap;
    }
    double attributed = 0.0;
    if (!candidates.empty() && blame.excess.value() > 0.0) {
      const bool use_weights = weighted_sum > 0.0;
      const double denom = use_weights ? weighted_sum : overlap_sum;
      for (const Candidate& c : candidates) {
        const double mass = use_weights ? c.weight : c.overlap;
        const double share = blame.excess.value() * (mass / denom);
        if (share <= 0.0) continue;
        const sched::RequestOutcome& culprit = outcomes[c.index];
        BlameShare s;
        s.culprit_request = node.global_ids[c.index];
        s.culprit_tenant = culprit.request.tenant_id;
        s.culprit_template = culprit.request.template_index;
        s.seconds = units::Seconds(share);
        blame.shares.push_back(s);
        attributed += share;
      }
    }
    blame.self_blame = units::Seconds(blame.excess.value() - attributed);
    blames.push_back(std::move(blame));
  }
  return blames;
}

TEST(BlameTest, SweepMatchesAllPairsReferenceExactly) {
  // Bursts of 12 simultaneous arrivals every 400 s on an MPL-3 node with
  // CoDel shedding: each burst starts with simultaneous admits into idle
  // slots, and its tail queues long enough to be shed.
  std::vector<sched::Request> assigned;
  for (int burst = 0; burst < 50; ++burst) {
    for (int k = 0; k < 12; ++k) {
      const int id = burst * 12 + k;
      sched::Request r = MakeRequest(id, (id * 7) % 25, 400.0 * burst);
      r.tenant_id = id % 3;
      assigned.push_back(r);
    }
  }
  NodeOptions options;
  options.target_mpl = 3;
  options.overload.codel_shed = true;
  options.overload.codel.target = units::Seconds(30.0);
  options.overload.codel.interval = units::Seconds(60.0);

  // Two identical runs give two oracles in the same state, one for each
  // implementation.
  Node reference_node(&PaperWorkload(), DefaultConfig(), &SharedPredictor(),
                      options);
  Node node(&PaperWorkload(), DefaultConfig(), &SharedPredictor(), options);
  auto reference_run = reference_node.Run(assigned);
  auto run = node.Run(assigned);
  ASSERT_TRUE(reference_run.ok()) << reference_run.status();
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(node.oracle().hits(), reference_node.oracle().hits());
  ASSERT_EQ(node.oracle().misses(), reference_node.oracle().misses());

  const std::vector<sched::RequestOutcome>& outcomes = run->schedule.outcomes;
  ASSERT_GE(outcomes.size(), 500u);
  int sheds = 0;
  int simultaneous_admits = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].shed) ++sheds;
    if (!outcomes[i].completed) continue;
    for (size_t j = i + 1; j < outcomes.size(); ++j) {
      if (outcomes[j].completed &&
          outcomes[j].admit_time == outcomes[i].admit_time) {
        ++simultaneous_admits;
      }
    }
  }
  ASSERT_GT(sheds, 0) << "the run must exercise shed outcomes";
  ASSERT_GT(simultaneous_admits, 0) << "the run must admit simultaneously";

  const std::vector<QueryBlame> expected =
      AllPairsBlame(*reference_run, reference_node.oracle());
  const std::vector<QueryBlame> actual = ComputeNodeBlame(*run, node.oracle());
  ASSERT_EQ(actual.size(), expected.size());
  size_t total_shares = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    const QueryBlame& a = actual[i];
    const QueryBlame& e = expected[i];
    EXPECT_EQ(a.request_id, e.request_id) << i;
    EXPECT_EQ(a.tenant_id, e.tenant_id) << i;
    EXPECT_EQ(a.template_index, e.template_index) << i;
    EXPECT_EQ(a.isolated_latency, e.isolated_latency) << i;
    EXPECT_EQ(a.execution_latency, e.execution_latency) << i;
    EXPECT_EQ(a.excess, e.excess) << i;
    EXPECT_EQ(a.self_blame, e.self_blame) << i;
    ASSERT_EQ(a.shares.size(), e.shares.size()) << i;
    for (size_t k = 0; k < a.shares.size(); ++k) {
      EXPECT_EQ(a.shares[k].culprit_request, e.shares[k].culprit_request);
      EXPECT_EQ(a.shares[k].culprit_tenant, e.shares[k].culprit_tenant);
      EXPECT_EQ(a.shares[k].culprit_template, e.shares[k].culprit_template);
      EXPECT_EQ(a.shares[k].seconds, e.shares[k].seconds);
    }
    total_shares += a.shares.size();
  }
  EXPECT_GT(total_shares, 0u);
  // Same probes in the same order: the memos end in the same state.
  EXPECT_EQ(node.oracle().hits(), reference_node.oracle().hits());
  EXPECT_EQ(node.oracle().misses(), reference_node.oracle().misses());
}

}  // namespace
}  // namespace contender::fleet
