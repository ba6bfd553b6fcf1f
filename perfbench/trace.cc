#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "util/mutex.h"

namespace perfbench {

struct Lane {
  std::vector<Span> spans;
  std::vector<int32_t> open;  // indices of spans not yet closed
};

namespace {

std::atomic<bool> g_enabled{false};

// Lanes outlive their threads: a joined thread's spans are still
// collected after it exits.
contender::Mutex g_lanes_mutex;
std::vector<std::unique_ptr<Lane>>& Lanes() {
  static auto* lanes = new std::vector<std::unique_ptr<Lane>>();
  return *lanes;
}

Lane* ThreadLane() {
  thread_local Lane* lane = nullptr;
  if (lane == nullptr) {
    auto owned = std::make_unique<Lane>();
    lane = owned.get();
    const contender::MutexLock lock(&g_lanes_mutex);
    Lanes().push_back(std::move(owned));
  }
  return lane;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  static constexpr std::array<const char*, kNumSpanNames> kNames = {
      "workload.collect", "core.train",     "fleet.route",
      "fleet.exec",       "fleet.blame",    "fleet.metrics",
      "serve.predict",    "serve.batch",    "serve.ingest",
      "serve.refit",      "serve.publish",  "serve.acquire",
      "core.predict",     "core.cqi",       "ml.dataset",
      "ml.kcca_fit",      "ml.svr_fit",     "ml.predict",
  };
  return kNames[static_cast<size_t>(name)];
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::vector<std::vector<Span>> Collect() {
  const contender::MutexLock lock(&g_lanes_mutex);
  std::vector<std::vector<Span>> out;
  for (const std::unique_ptr<Lane>& lane : Lanes()) {
    out.push_back(std::move(lane->spans));
    lane->spans.clear();
    lane->open.clear();
  }
  return out;
}

ScopedSpan::ScopedSpan(SpanName name, uint64_t ops) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  lane_ = ThreadLane();
  Span span;
  span.name = name;
  span.ops = ops;
  span.parent = lane_->open.empty() ? -1 : lane_->open.back();
  index_ = static_cast<int32_t>(lane_->spans.size());
  lane_->open.push_back(index_);
  span.start_ns = NowNs();
  lane_->spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (lane_ == nullptr) return;
  lane_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  lane_->open.pop_back();
}

PassProfile Profile(const std::vector<std::vector<Span>>& lanes,
                    int64_t pass_start_ns, int64_t pass_end_ns) {
  PassProfile profile;
  std::vector<std::pair<int64_t, int64_t>> roots;
  for (const std::vector<Span>& spans : lanes) {
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      } else {
        roots.emplace_back(std::max(span.start_ns, pass_start_ns),
                           std::min(span.end_ns, pass_end_ns));
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      SpanTotals& totals = profile.by_name[static_cast<size_t>(span.name)];
      const double duration_s =
          static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      totals.ops += span.ops;
      totals.self_s +=
          static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) *
          1e-9;
      totals.max_s = std::max(totals.max_s, duration_s);
      if (span.name == SpanName::kRoute) {
        totals.durations_s.push_back(duration_s);
      }
    }
  }
  // Union of the root intervals, clipped to the pass.
  std::sort(roots.begin(), roots.end());
  int64_t covered_ns = 0;
  int64_t reach = pass_start_ns;
  for (const auto& [start, end] : roots) {
    const int64_t from = std::max(start, reach);
    if (end > from) {
      covered_ns += end - from;
      reach = end;
    }
  }
  profile.covered_s = static_cast<double>(covered_ns) * 1e-9;
  return profile;
}

}  // namespace perfbench
