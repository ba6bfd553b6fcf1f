#include "sched/request.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace contender::sched {
namespace {

ArrivalOptions SmallStream() {
  ArrivalOptions options;
  options.num_requests = 64;
  options.mean_interarrival = units::Seconds(10.0);
  options.deadline_probability = 0.5;
  options.min_slack = 2.0;
  options.max_slack = 5.0;
  options.seed = 7;
  return options;
}

std::vector<units::Seconds> Reference() {
  return {units::Seconds(30.0), units::Seconds(60.0), units::Seconds(90.0)};
}

// Unwraps a stream the test expects to be well-formed.
std::vector<Request> MustGenerate(const std::vector<units::Seconds>& ref,
                                  const ArrivalOptions& options) {
  auto requests = GenerateArrivals(ref, options);
  EXPECT_TRUE(requests.ok()) << requests.status();
  return std::move(*requests);
}

TEST(GenerateArrivalsTest, DeterministicUnderFixedSeed) {
  const auto a = MustGenerate(Reference(), SmallStream());
  const auto b = MustGenerate(Reference(), SmallStream());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request_id, b[i].request_id);
    EXPECT_EQ(a[i].template_index, b[i].template_index);
    EXPECT_EQ(a[i].arrival_time, b[i].arrival_time);
    EXPECT_EQ(a[i].deadline.has_value(), b[i].deadline.has_value());
    if (a[i].deadline.has_value()) {
      EXPECT_EQ(*a[i].deadline, *b[i].deadline);
    }
  }
}

TEST(GenerateArrivalsTest, RejectsNonPositiveArrivalRate) {
  ArrivalOptions options = SmallStream();
  options.mean_interarrival = units::Seconds(0.0);
  auto zero = GenerateArrivals(Reference(), options);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);

  options.mean_interarrival = units::Seconds(-3.0);
  auto negative = GenerateArrivals(Reference(), options);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
}

TEST(GenerateArrivalsTest, RejectsMalformedOptions) {
  auto no_templates = GenerateArrivals({}, SmallStream());
  ASSERT_FALSE(no_templates.ok());
  EXPECT_EQ(no_templates.status().code(), StatusCode::kInvalidArgument);

  ArrivalOptions negative_count = SmallStream();
  negative_count.num_requests = -1;
  EXPECT_FALSE(GenerateArrivals(Reference(), negative_count).ok());

  ArrivalOptions bad_probability = SmallStream();
  bad_probability.deadline_probability = 1.5;
  EXPECT_FALSE(GenerateArrivals(Reference(), bad_probability).ok());

  ArrivalOptions inverted_slack = SmallStream();
  inverted_slack.min_slack = 5.0;
  inverted_slack.max_slack = 2.0;
  EXPECT_FALSE(GenerateArrivals(Reference(), inverted_slack).ok());
}

TEST(GenerateArrivalsTest, SeedChangesStream) {
  ArrivalOptions other = SmallStream();
  other.seed = 8;
  const auto a = MustGenerate(Reference(), SmallStream());
  const auto b = MustGenerate(Reference(), other);
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    differs |= a[i].template_index != b[i].template_index ||
               a[i].arrival_time != b[i].arrival_time;
  }
  EXPECT_TRUE(differs);
}

TEST(GenerateArrivalsTest, StreamShapeInvariants) {
  const auto reference = Reference();
  const auto requests = MustGenerate(reference, SmallStream());
  ASSERT_EQ(requests.size(), 64u);
  EXPECT_EQ(requests.front().arrival_time, units::Seconds(0.0));
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].request_id, static_cast<int>(i));
    EXPECT_GE(requests[i].template_index, 0);
    EXPECT_LT(requests[i].template_index,
              static_cast<int>(reference.size()));
    if (i > 0) {
      EXPECT_GE(requests[i].arrival_time, requests[i - 1].arrival_time);
    }
  }
}

TEST(GenerateArrivalsTest, DeadlineSlackWithinConfiguredBand) {
  ArrivalOptions options = SmallStream();
  options.deadline_probability = 1.0;
  const auto reference = Reference();
  const auto requests = MustGenerate(reference, options);
  for (const Request& r : requests) {
    ASSERT_TRUE(r.deadline.has_value());
    const double slack =
        (*r.deadline - r.arrival_time).value() /
        reference[static_cast<size_t>(r.template_index)].value();
    EXPECT_GE(slack, options.min_slack);
    EXPECT_LT(slack, options.max_slack);
  }
}

TEST(GenerateArrivalsTest, ZeroProbabilityMeansBestEffortOnly) {
  ArrivalOptions options = SmallStream();
  options.deadline_probability = 0.0;
  for (const Request& r : MustGenerate(Reference(), options)) {
    EXPECT_FALSE(r.deadline.has_value());
  }
}

Request MakeRequest(int id, double arrival) {
  Request r;
  r.request_id = id;
  r.template_index = 0;
  r.arrival_time = units::Seconds(arrival);
  return r;
}

TEST(RequestQueueTest, SortsByArrivalThenId) {
  RequestQueue queue({MakeRequest(2, 5.0), MakeRequest(0, 9.0),
                      MakeRequest(1, 5.0)});
  ASSERT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.at(0).request_id, 1);  // t=5, lower id first
  EXPECT_EQ(queue.at(1).request_id, 2);  // t=5
  EXPECT_EQ(queue.at(2).request_id, 0);  // t=9
}

TEST(RequestQueueTest, ArrivedByIsTheAdmissiblePrefix) {
  RequestQueue queue({MakeRequest(0, 0.0), MakeRequest(1, 4.0),
                      MakeRequest(2, 8.0)});
  EXPECT_EQ(queue.ArrivedBy(units::Seconds(-1.0)), 0u);
  EXPECT_EQ(queue.ArrivedBy(units::Seconds(0.0)), 1u);
  EXPECT_EQ(queue.ArrivedBy(units::Seconds(4.0)), 2u);
  EXPECT_EQ(queue.ArrivedBy(units::Seconds(100.0)), 3u);
  EXPECT_EQ(queue.NextArrival(), units::Seconds(0.0));
}

TEST(RequestQueueTest, TakeRemovesExactlyOnePosition) {
  RequestQueue queue({MakeRequest(0, 0.0), MakeRequest(1, 4.0),
                      MakeRequest(2, 8.0)});
  const Request taken = queue.Take(1);
  EXPECT_EQ(taken.request_id, 1);
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.at(0).request_id, 0);
  EXPECT_EQ(queue.at(1).request_id, 2);
}

TEST(RequestQueueTest, PushKeepsQueueOrder) {
  RequestQueue queue;
  queue.Push(MakeRequest(0, 6.0));
  queue.Push(MakeRequest(1, 2.0));
  queue.Push(MakeRequest(2, 6.0));
  ASSERT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.at(0).request_id, 1);
  EXPECT_EQ(queue.at(1).request_id, 0);
  EXPECT_EQ(queue.at(2).request_id, 2);
}

TEST(RequestQueueTest, InterleavedTakesAndPushesMatchAVector) {
  // The reference: a plain vector in queue order, erased in place.
  std::vector<Request> model;
  std::vector<Request> initial;
  for (int id = 0; id < 40; ++id) {
    initial.push_back(MakeRequest(id, static_cast<double>((id * 7) % 13)));
  }
  RequestQueue queue(initial);
  for (size_t i = 0; i < queue.size(); ++i) model.push_back(queue.at(i));
  int next_id = 40;
  for (size_t step = 0; !model.empty(); ++step) {
    const size_t pick = (step * 5) % std::min<size_t>(model.size(), 4);
    const Request taken = queue.Take(pick);
    EXPECT_EQ(taken.request_id, model[pick].request_id) << step;
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(pick));
    if (step % 6 == 0 && next_id < 50) {
      const Request pushed =
          MakeRequest(next_id++, static_cast<double>(step % 13));
      queue.Push(pushed);
      model.insert(std::upper_bound(model.begin(), model.end(), pushed,
                                    [](const Request& x, const Request& y) {
                                      if (x.arrival_time != y.arrival_time) {
                                        return x.arrival_time <
                                               y.arrival_time;
                                      }
                                      return x.request_id < y.request_id;
                                    }),
                   pushed);
    }
    ASSERT_EQ(queue.size(), model.size()) << step;
    for (size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(queue.at(i).request_id, model[i].request_id) << step;
    }
    if (!model.empty()) {
      EXPECT_EQ(queue.NextArrival(), model.front().arrival_time);
    }
  }
  EXPECT_TRUE(queue.empty());
}

TEST(RequestQueueTest, ArrivedByMatchesALinearCountAfterTakesAndPushes) {
  // Arrivals on a 0.5 s grid over a short window, so many requests share
  // an arrival instant; probes land on, between and outside the grid.
  auto linear = [](const RequestQueue& queue, units::Seconds t) {
    size_t n = 0;
    while (n < queue.size() && queue.at(n).arrival_time <= t) ++n;
    return n;
  };
  std::vector<Request> initial;
  for (int id = 0; id < 30; ++id) {
    initial.push_back(MakeRequest(id, 0.5 * static_cast<double>(id % 7)));
  }
  RequestQueue queue(initial);
  int next_id = 30;
  for (size_t step = 0; !queue.empty(); ++step) {
    for (double t = -0.5; t <= 4.0; t += 0.25) {
      ASSERT_EQ(queue.ArrivedBy(units::Seconds(t)),
                linear(queue, units::Seconds(t)))
          << "step " << step << ", t = " << t;
    }
    (void)queue.Take((step * 3) % queue.size());
    if (step % 2 == 0 && next_id < 60) {
      queue.Push(MakeRequest(next_id++, 0.5 * static_cast<double>(step % 5)));
    }
  }
  EXPECT_EQ(queue.ArrivedBy(units::Seconds(100.0)), 0u);
}

}  // namespace
}  // namespace contender::sched
