// The execution engine: a deterministic fluid (rate-based) discrete-event
// simulator of concurrent analytical queries competing for one disk, a
// buffer pool, working memory, and CPU cores.
//
// Between events every active process progresses its current phase's
// demands at constant rates:
//   - sequential I/O: scan groups (one per table) share the disk fairly
//     with random streams (see disk.h); all members of a scan group advance
//     at the full group rate (synchronized scans);
//   - spill I/O: swap-style scattered traffic from memory shortfalls,
//     modeled as a private random stream (seek-bound, never shared);
//   - random I/O: capped by a per-phase stochastic intrinsic rate;
//   - CPU: one core per process, processor sharing when oversubscribed.
// The engine advances to the earliest demand completion / arrival, updates
// accounting, and re-solves rates.
//
// Cost: a step touches only the active set (arrived, unfinished processes,
// kept in ascending id order) plus the arrival heap, so it costs
// O(active + log pending) however many processes have finished; a run
// over n queries is linear in n at bounded concurrency.
//
// Memory: the engine owns each added spec and frees its phase list when
// the process completes, so plans are held only for pending and active
// processes. A finished process keeps its ProcessResult (and a
// phase-less spec header) for the engine's lifetime, so result(id) stays
// valid for every id ever added.

#ifndef CONTENDER_SIM_ENGINE_H_
#define CONTENDER_SIM_ENGINE_H_

#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/buffer_pool.h"
#include "sim/config.h"
#include "sim/disk.h"
#include "sim/query_spec.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender::sim {

/// Concurrent query execution simulator. Single-threaded, deterministic
/// under a fixed seed. One Engine models one continuous machine run (the
/// buffer pool persists across queries added to the same engine).
class Engine {
 public:
  /// Invoked when a process completes; may call AddProcess (steady-state
  /// drivers) and may request a stop via RequestStop(). The ProcessResult&
  /// refers into the engine's process table: it is invalid once the
  /// callback calls AddProcess (copy what is needed first).
  using CompletionCallback = std::function<void(const ProcessResult&)>;

  Engine(const SimConfig& config, uint64_t seed);

  /// Schedules a query to start at `start_time` (>= now). Returns the
  /// process id. The engine takes the spec (move it in to skip a copy),
  /// prepends the per-query startup CPU cost for mortal processes, and
  /// frees the phases at completion: a finished process keeps only its
  /// ProcessResult.
  int AddProcess(QuerySpec spec, units::Seconds start_time);

  void SetCompletionCallback(CompletionCallback cb) {
    completion_callback_ = std::move(cb);
  }

  /// Runs until every mortal process has completed and no arrivals remain
  /// (immortal spoiler streams do not keep the engine alive), or until
  /// RequestStop() is called from the completion callback.
  Status Run();

  /// Runs until the given process completes (other processes keep running
  /// up to that instant, then the engine stops).
  Status RunUntilProcessCompletes(int process_id);

  /// Stops the run loop after the current event (valid inside callbacks).
  void RequestStop() { stop_requested_ = true; }

  units::Seconds now() const { return units::Seconds(now_); }
  const SimConfig& config() const { return config_; }
  const BufferPool& buffer_pool() const { return buffer_pool_; }
  /// Currently granted working memory plus pinned memory.
  units::Bytes memory_in_use() const;

  /// Accounting for any process ever added.
  const ProcessResult& result(int process_id) const;
  size_t num_processes() const { return processes_.size(); }

 private:
  struct Process {
    QuerySpec spec;
    ProcessResult result;
    bool arrived = false;
    bool done = false;
    size_t phase_index = 0;
    bool phase_ready = false;
    // Remaining demands of the current phase.
    double seq_remaining = 0.0;
    double spill_remaining = 0.0;
    double rnd_remaining = 0.0;
    double cpu_remaining = 0.0;
    // Per-phase draws and grants.
    double rnd_rate_multiplier = 1.0;
    double spill_rate_multiplier = 1.0;
    double mem_granted = 0.0;
    // Scan metadata for the current phase.
    TableId seq_table = kNoTable;
    double seq_table_bytes = 0.0;
    bool seq_cacheable = false;
    bool seq_from_cache = false;
  };

  /// Starts the process's next phase: memory grant, spill computation,
  /// cache check, noise draws. Recursively skips empty phases.
  void InitPhase(Process* p);

  /// True once every demand of the current phase is exhausted.
  static bool PhaseDone(const Process& p);

  void CompletePhase(Process* p);
  void CompleteProcess(Process* p);

  /// Memory-pressure reclaim: takes up to `need` bytes from arrived
  /// processes whose current grant exceeds `requester_demand` (largest
  /// first); victims incur swap (spill) traffic. Returns the bytes freed.
  double RevokeMemoryFromLargerHolders(Process* requester, double need,
                                       double requester_demand);

  /// One fluid step: solve rates, pick dt, advance. Returns false when
  /// nothing can make progress (no active demand and no pending arrival).
  bool Step();

  void ActivateArrivals();
  double NextArrivalTime() const;
  void UpdateBufferPoolCapacity();

  SimConfig config_;
  Rng rng_;
  double now_ = 0.0;
  bool stop_requested_ = false;

  std::vector<Process> processes_;
  // Arrived, unfinished process ids in ascending id order. Finished ids
  // are dropped at the start of the next step, so every loop over the
  // active set visits processes in the same order as a scan over
  // processes_ would.
  std::vector<int> active_;
  // Processes not yet arrived: a min-heap on (start_time, id), the
  // arrival order with insertion order breaking ties.
  std::vector<std::pair<double, int>> pending_;
  size_t num_done_ = 0;
  // Mortal processes added but not yet completed (pending ones included).
  size_t live_mortal_ = 0;

  // Per-step scratch reused across steps; rate entries are indexed by
  // position in active_.
  struct StepRates {
    double seq = 0.0;
    double spill = 0.0;
    double rnd = 0.0;
    int group_size = 1;
  };
  std::vector<StepRates> rates_;
  std::vector<std::pair<TableId, size_t>> scan_members_;
  // (active position, is spill) per random stream, in demand order.
  std::vector<std::pair<size_t, bool>> rnd_streams_;
  DiskDemand demand_;
  std::vector<int> arrivals_;

  BufferPool buffer_pool_;
  double pinned_memory_ = 0.0;
  double granted_working_memory_ = 0.0;

  CompletionCallback completion_callback_;

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();
  static constexpr double kEps = 1e-7;
};

/// One self-contained engine run: every spec is added at t = 0 in order.
struct EngineRun {
  std::vector<QuerySpec> specs;
  SimConfig config;
  uint64_t seed = 0;
  /// Index into `specs` of the process the run waits for (spoiler runs wait
  /// for the primary); -1 runs until all mortal processes complete.
  int run_until = -1;
};

/// Outcome of one engine run.
struct EngineRunResult {
  /// Per-process accounting, index-aligned with EngineRun::specs.
  std::vector<ProcessResult> results;
  /// Virtual time at which the run stopped.
  double duration = 0.0;
};

/// Executes one run on a fresh engine. A pure function of `run`, so
/// independent runs can be fanned across a ThreadPool::Map and come back
/// bit-identical to sequential execution.
StatusOr<EngineRunResult> RunEngine(const EngineRun& run);

}  // namespace contender::sim

#endif  // CONTENDER_SIM_ENGINE_H_
