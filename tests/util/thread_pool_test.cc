#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/failpoint.h"
#include "util/statusor.h"

namespace contender {
namespace {

TEST(ThreadPoolTest, SubmitReturnsTaskResults) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.num_threads(), 4);
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

TEST(ThreadPoolTest, SingleWorkerExecutesInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mutex;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([i, &order, &mutex] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(i);
    }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto throwing = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  auto healthy = pool.Submit([] { return 7; });
  EXPECT_THROW(throwing.get(), std::runtime_error);
  // A throwing task does not poison the pool.
  EXPECT_EQ(healthy.get(), 7);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&completed] {
        completed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor must run every already-submitted task before joining.
  }
  EXPECT_EQ(completed.load(), 64);
}

TEST(ThreadPoolTest, WorkersRunConcurrently) {
  // Two tasks that each wait for the other's side-effect can only finish
  // when two workers run them simultaneously.
  ThreadPool pool(2);
  std::promise<void> first_started, second_started;
  auto a = pool.Submit([&] {
    first_started.set_value();
    second_started.get_future().wait();
  });
  auto b = pool.Submit([&] {
    second_started.set_value();
    first_started.get_future().wait();
  });
  const auto deadline = std::chrono::seconds(10);
  ASSERT_EQ(a.wait_for(deadline), std::future_status::ready);
  ASSERT_EQ(b.wait_for(deadline), std::future_status::ready);
  a.get();
  b.get();
}

TEST(ThreadPoolTest, ConcurrentSubmittersAreSafe) {
  // Hammer the queue from several submitter threads (exercised under TSAN
  // via the `tsan` ctest label).
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  std::vector<std::thread> submitters;
  std::mutex futures_mutex;
  std::vector<std::future<void>> futures;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto f = pool.Submit([&completed] {
          completed.fetch_add(1, std::memory_order_relaxed);
        });
        std::lock_guard<std::mutex> lock(futures_mutex);
        futures.push_back(std::move(f));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  for (auto& f : futures) f.get();
  EXPECT_EQ(completed.load(), 200);
}

TEST(ThreadPoolTest, MapReturnsResultsByIndexUnderOutOfOrderCompletion) {
  // Task i cannot finish before task i + 1 has, so the tasks complete in
  // reverse index order; Map must still return them by index.
  constexpr size_t kTasks = 4;
  ThreadPool pool(static_cast<int>(kTasks));
  std::vector<std::promise<void>> finished(kTasks);
  std::vector<std::shared_future<void>> finished_futures;
  for (std::promise<void>& p : finished) {
    finished_futures.push_back(p.get_future().share());
  }
  std::atomic<int> completion_rank{0};
  std::vector<int> rank_of(kTasks, -1);
  const std::vector<StatusOr<size_t>> out =
      pool.Map(kTasks, [&](size_t i) -> StatusOr<size_t> {
        if (i + 1 < kTasks) finished_futures[i + 1].wait();
        rank_of[i] = completion_rank.fetch_add(1);
        finished[i].set_value();
        if (i == 2) return Status::Internal("task 2 failed");
        return i * 10;
      });
  ASSERT_EQ(out.size(), kTasks);
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(rank_of[i], static_cast<int>(kTasks - 1 - i));
    if (i == 2) {
      EXPECT_EQ(out[i].status().code(), StatusCode::kInternal);
    } else {
      ASSERT_TRUE(out[i].ok());
      EXPECT_EQ(*out[i], i * 10);
    }
  }
}

TEST(ThreadPoolTest, MapRethrowsTheLowestIndexExceptionAfterAllTasksFinish) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  try {
    pool.Map(32, [&finished](size_t i) {
      if (i == 9) throw std::runtime_error("nine");
      if (i == 3) throw std::runtime_error("three");
      finished.fetch_add(1);
      return i;
    });
    FAIL() << "Map swallowed the task exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "three");
  }
  // Map does not return or rethrow while a task can still touch the
  // caller's locals.
  EXPECT_EQ(finished.load(), 30);
}

TEST(ThreadPoolTest, MapDegradesInlineWhenSubmitFailPointFires) {
  ThreadPool pool(4);
  FailPointRegistry::Global().ArmProbability("util.thread_pool.submit", 1.0);
  const std::thread::id caller = std::this_thread::get_id();
  const std::vector<std::pair<size_t, std::thread::id>> out =
      pool.Map(16, [](size_t i) {
        return std::make_pair(i, std::this_thread::get_id());
      });
  FailPointRegistry::Global().DisarmAll();
  ASSERT_EQ(out.size(), 16u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, i);
    EXPECT_EQ(out[i].second, caller);
  }
}

}  // namespace
}  // namespace contender
