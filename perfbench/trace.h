// Span tracing for the benchmark's traced runs. Spans are recorded from
// the benchmark's own code around calls into each layer's public
// functions; nothing inside the program is instrumented.
//
// Each thread records into its own lane, so recording never takes a lock.
// Spans nest per lane: a span's parent is the innermost span still open on
// the same lane when it started. Spans stay in memory until Collect(),
// which the benchmark calls between passes, once every thread that
// recorded has been joined or is idle.
//
// With tracing off (the default) a ScopedSpan is one predictable branch.
// A traced run switches it on only for its setups and traced passes.

#ifndef CONTENDER_PERFBENCH_TRACE_H_
#define CONTENDER_PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Every layer boundary the benchmark records.
enum class SpanName : uint8_t {
  kCollect,      // WorkloadSampler::CollectAll
  kTrain,        // ContenderPredictor::Train
  kRoute,        // fleet::Router::Route
  kExec,         // fleet::Node::Run
  kBlame,        // fleet::ComputeNodeBlame
  kMetrics,      // fleet::ComputeFleetMetrics
  kPredict,      // serve::PredictionService::Predict
  kBatch,        // serve::PredictionService::PredictBatch
  kIngest,       // serve::ObservationLog::Ingest
  kRefit,        // serve::RefitController::Step
  kPublish,      // serve::PredictionService::Publish
  kAcquire,      // serve::SnapshotHolder::Acquire (timed as a loop)
  kCorePredict,  // sched::PredictInMixUncached (timed as a loop)
  kCoreCqi,      // ComputeCqi (timed as a loop)
  kDataset,      // BuildMlDataset
  kKccaFit,      // KccaModel::Fit
  kSvrFit,       // SvrModel::Fit
  kMlPredict,    // KccaModel::PredictLatency + SvrModel::Predict
  kNumNames,
};

inline constexpr int kNumSpanNames = static_cast<int>(SpanName::kNumNames);

const char* SpanNameString(SpanName name);

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Calls the span covers: 1 for a single call, N for a timed loop.
  uint64_t ops = 1;
  /// Index of the enclosing span in the same lane, or -1 for a root.
  int32_t parent = -1;
  SpanName name = SpanName::kNumNames;
};

/// The spans one thread recorded.
struct Lane;

/// Turns recording on or off. Threads started after the call see it.
void SetTracing(bool on);

/// Removes and returns every lane's recorded spans (one vector per lane).
/// Call only while no thread is recording.
std::vector<std::vector<Span>> Collect();

/// Records one span on the calling thread's lane for its lifetime.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, uint64_t ops = 1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Lane* lane_ = nullptr;
  int32_t index_ = -1;
};

/// Per-name totals over one pass's spans.
struct SpanTotals {
  uint64_t ops = 0;
  /// Sum of self time (duration minus time covered by child spans).
  double self_s = 0.0;
  /// Longest single span.
  double max_s = 0.0;
  /// Every span duration, kept only for names whose percentiles are
  /// reported.
  std::vector<double> durations_s;
};

struct PassProfile {
  std::array<SpanTotals, kNumSpanNames> by_name;
  /// Wall time inside [pass_start, pass_end] covered by at least one root
  /// span on any lane.
  double covered_s = 0.0;
};

/// Folds collected spans into per-name self times and counts, and the
/// union of root spans within the pass interval.
PassProfile Profile(const std::vector<std::vector<Span>>& lanes,
                    int64_t pass_start_ns, int64_t pass_end_ns);

}  // namespace perfbench

#endif  // CONTENDER_PERFBENCH_TRACE_H_
