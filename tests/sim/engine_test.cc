#include "sim/engine.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "sim/spoiler.h"
#include "util/logging.h"

namespace contender::sim {
namespace {

// A noise-free machine for hand-computable scenarios.
SimConfig QuietConfig() {
  SimConfig c;
  c.seq_bandwidth = 100.0 * kMB;
  c.random_bandwidth = 2.0 * kMB;
  c.spill_bandwidth = 4.0 * kMB;
  c.seek_overhead = 0.0;
  c.random_io_sigma = 0.0;
  c.spill_io_sigma = 0.0;
  c.cpu_jitter = 0.0;
  c.startup_cpu_seconds = 0.0;
  c.ram_bytes = 8.0 * kGB;
  c.os_reserved_bytes = 1.0 * kGB;
  c.buffer_pool_fraction = 1.0;
  return c;
}

QuerySpec ScanQuery(const std::string& name, TableId table, double bytes,
                    bool cacheable = false, double table_bytes = -1.0) {
  QuerySpec q;
  q.name = name;
  Phase p;
  p.seq_io_bytes = bytes;
  p.table = table;
  p.table_bytes = table_bytes < 0.0 ? bytes : table_bytes;
  p.cacheable = cacheable;
  q.phases.push_back(p);
  return q;
}

TEST(EngineTest, SingleScanLatencyIsBytesOverBandwidth) {
  Engine engine(QuietConfig(), 1);
  const int pid = engine.AddProcess(ScanQuery("s", 0, 1000.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  const ProcessResult& r = engine.result(pid);
  EXPECT_TRUE(r.completed);
  EXPECT_NEAR(r.latency().value(), 10.0, 1e-6);
  EXPECT_NEAR(r.io_busy_seconds, 10.0, 1e-6);
  EXPECT_NEAR(r.disk_bytes_read, 1000.0 * kMB, 1.0);
  EXPECT_DOUBLE_EQ(r.io_fraction().value(), 1.0);
}

TEST(EngineTest, CpuAndIoOverlapWithinPhase) {
  Engine engine(QuietConfig(), 1);
  QuerySpec q = ScanQuery("s", 0, 500.0 * kMB);  // 5 s of I/O
  q.phases[0].cpu_seconds = 8.0;                 // longer CPU leg
  const int pid = engine.AddProcess(q, units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  const ProcessResult& r = engine.result(pid);
  EXPECT_NEAR(r.latency().value(), 8.0, 1e-6);          // max(io, cpu)
  EXPECT_NEAR(r.io_busy_seconds, 5.0, 1e-6);    // I/O leg finished first
  EXPECT_NEAR(r.cpu_busy_seconds, 8.0, 1e-6);
  EXPECT_NEAR(r.io_fraction().value(), 5.0 / 8.0, 1e-6);
}

TEST(EngineTest, PhasesRunSequentially) {
  Engine engine(QuietConfig(), 1);
  QuerySpec q;
  q.name = "two-phase";
  Phase a;
  a.seq_io_bytes = 100.0 * kMB;
  a.table = 0;
  Phase b;
  b.cpu_seconds = 3.0;
  q.phases = {a, b};
  const int pid = engine.AddProcess(q, units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(pid).latency().value(), 1.0 + 3.0, 1e-6);
}

TEST(EngineTest, DisjointScansSlowEachOtherDown) {
  Engine engine(QuietConfig(), 1);
  const int a = engine.AddProcess(ScanQuery("a", 0, 500.0 * kMB), units::Seconds(0.0));
  const int b = engine.AddProcess(ScanQuery("b", 1, 500.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  // Two streams split the disk: both finish at 10 s instead of 5 s.
  EXPECT_NEAR(engine.result(a).latency().value(), 10.0, 1e-6);
  EXPECT_NEAR(engine.result(b).latency().value(), 10.0, 1e-6);
}

TEST(EngineTest, SharedScansProceedAtGroupRate) {
  Engine engine(QuietConfig(), 1);
  const int a = engine.AddProcess(ScanQuery("a", 7, 500.0 * kMB), units::Seconds(0.0));
  const int b = engine.AddProcess(ScanQuery("b", 7, 500.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  // Synchronized scan: one stream serves both; each finishes in 5 s.
  EXPECT_NEAR(engine.result(a).latency().value(), 5.0, 1e-6);
  EXPECT_NEAR(engine.result(b).latency().value(), 5.0, 1e-6);
  // Each member is accounted half the physical reads, half shared savings.
  EXPECT_NEAR(engine.result(a).disk_bytes_read, 250.0 * kMB, 1.0);
  EXPECT_NEAR(engine.result(a).bytes_saved_by_shared_scan, 250.0 * kMB, 1.0);
}

TEST(EngineTest, NegativeTableIdsNeverShare) {
  Engine engine(QuietConfig(), 1);
  const int a = engine.AddProcess(ScanQuery("a", -5, 500.0 * kMB), units::Seconds(0.0));
  const int b = engine.AddProcess(ScanQuery("b", -5, 500.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(a).latency().value(), 10.0, 1e-6);
  EXPECT_NEAR(engine.result(b).latency().value(), 10.0, 1e-6);
}

TEST(EngineTest, DimensionTableCachedAfterFirstRead) {
  Engine engine(QuietConfig(), 1);
  const int a =
      engine.AddProcess(ScanQuery("a", 3, 200.0 * kMB, /*cacheable=*/true),
                        units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(a).latency().value(), 2.0, 1e-6);
  // Second read is served from the buffer pool.
  const int b =
      engine.AddProcess(ScanQuery("b", 3, 200.0 * kMB, /*cacheable=*/true),
                        engine.now());
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(b).latency().value(), 0.0, 1e-6);
  EXPECT_NEAR(engine.result(b).bytes_saved_by_cache, 200.0 * kMB, 1.0);
  EXPECT_DOUBLE_EQ(engine.result(b).disk_bytes_read, 0.0);
}

TEST(EngineTest, RandomIoRunsAtIntrinsicRate) {
  Engine engine(QuietConfig(), 1);
  QuerySpec q;
  q.name = "rnd";
  Phase p;
  p.rnd_io_bytes = 20.0 * kMB;  // at 2 MB/s -> 10 s
  q.phases.push_back(p);
  const int pid = engine.AddProcess(q, units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(pid).latency().value(), 10.0, 1e-6);
}

TEST(EngineTest, MemoryGrantedWhenAvailable) {
  Engine engine(QuietConfig(), 1);
  QuerySpec q;
  q.name = "mem";
  Phase p;
  p.cpu_seconds = 1.0;
  p.mem_demand_bytes = 2.0 * kGB;
  p.spillable = true;
  q.phases.push_back(p);
  const int pid = engine.AddProcess(q, units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  const ProcessResult& r = engine.result(pid);
  EXPECT_NEAR(r.max_memory_granted, 2.0 * kGB, 1.0);
  EXPECT_DOUBLE_EQ(r.spill_bytes, 0.0);
  EXPECT_NEAR(r.latency().value(), 1.0, 1e-6);
  // Grant released at completion.
  EXPECT_DOUBLE_EQ(engine.memory_in_use().value(), 0.0);
}

TEST(EngineTest, MemoryShortfallSpills) {
  SimConfig cfg = QuietConfig();
  cfg.spill_amplification = 2.0;
  Engine engine(cfg, 1);
  // Pin most of RAM via an immortal process.
  QuerySpec pin;
  pin.name = "pin";
  pin.immortal = true;
  pin.pinned_memory_bytes = 6.0 * kGB;  // grantable is 7 GB
  Phase idle;
  idle.cpu_seconds = 1e30;
  pin.phases.push_back(idle);
  engine.AddProcess(pin, units::Seconds(0.0));

  QuerySpec q;
  q.name = "spiller";
  Phase p;
  p.cpu_seconds = 1.0;
  p.mem_demand_bytes = 2.0 * kGB;  // only 1 GB available -> 1 GB shortfall
  p.spillable = true;
  q.phases.push_back(p);
  const int pid = engine.AddProcess(q, units::Seconds(0.0));
  ASSERT_TRUE(engine.RunUntilProcessCompletes(pid).ok());
  const ProcessResult& r = engine.result(pid);
  EXPECT_NEAR(r.spill_bytes, 2.0 * kGB, 1.0);  // 1 GB * amplification 2
  EXPECT_NEAR(r.max_memory_granted, 1.0 * kGB, 1.0);
  // Spill runs at spill_bandwidth (4 MB/s), sole I/O stream: 2 GB -> 500 s.
  EXPECT_NEAR(r.latency().value(), 500.0, 1.0);
}

TEST(EngineTest, ArrivalsActivateAtStartTime) {
  Engine engine(QuietConfig(), 1);
  const int a = engine.AddProcess(ScanQuery("a", 0, 400.0 * kMB), units::Seconds(0.0));
  const int b = engine.AddProcess(ScanQuery("b", 1, 100.0 * kMB), units::Seconds(2.0));
  ASSERT_TRUE(engine.Run().ok());
  // a runs alone for 2 s (200 MB), shares with b for 2 s (+100 MB), then
  // finishes its last 100 MB alone: done at t = 5 s.
  EXPECT_NEAR(engine.result(a).latency().value(), 5.0, 1e-6);
  EXPECT_NEAR(engine.result(b).start_time, 2.0, 1e-9);
  // b: 100 MB at 50 MB/s while sharing -> ends at 4 s (latency 2 s).
  EXPECT_NEAR(engine.result(b).latency().value(), 2.0, 1e-6);
}

TEST(EngineTest, CompletionCallbackCanChainProcesses) {
  Engine engine(QuietConfig(), 1);
  int completions = 0;
  engine.SetCompletionCallback([&](const ProcessResult& r) {
    ++completions;
    if (completions < 3) {
      engine.AddProcess(ScanQuery("next", 0, 100.0 * kMB), engine.now());
    }
    (void)r;
  });
  engine.AddProcess(ScanQuery("first", 0, 100.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(completions, 3);
  EXPECT_NEAR(engine.now().value(), 3.0, 1e-6);
}

TEST(EngineTest, RequestStopAbandonsRun) {
  Engine engine(QuietConfig(), 1);
  engine.SetCompletionCallback(
      [&](const ProcessResult&) { engine.RequestStop(); });
  engine.AddProcess(ScanQuery("a", 0, 100.0 * kMB), units::Seconds(0.0));
  engine.AddProcess(ScanQuery("b", 1, 10000.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_LT(engine.now().value(), 10.0);
}

TEST(EngineTest, DeterministicAcrossRunsWithSameSeed) {
  SimConfig cfg = QuietConfig();
  cfg.random_io_sigma = 0.3;
  cfg.cpu_jitter = 0.05;
  auto run_once = [&]() {
    Engine engine(cfg, 99);
    QuerySpec q;
    q.name = "noisy";
    Phase p;
    p.rnd_io_bytes = 10.0 * kMB;
    p.cpu_seconds = 2.0;
    q.phases.push_back(p);
    const int pid = engine.AddProcess(q, units::Seconds(0.0));
    CONTENDER_CHECK(engine.Run().ok());
    return engine.result(pid).latency().value();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(EngineTest, StartupCostPrependedForMortalProcesses) {
  SimConfig cfg = QuietConfig();
  cfg.startup_cpu_seconds = 0.5;
  Engine engine(cfg, 1);
  const int pid = engine.AddProcess(ScanQuery("s", 0, 100.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_NEAR(engine.result(pid).latency().value(), 1.5, 1e-6);
}

TEST(EngineTest, CpuOversubscriptionSharesCores) {
  SimConfig cfg = QuietConfig();
  cfg.cores = 2;
  Engine engine(cfg, 1);
  std::vector<int> pids;
  for (int i = 0; i < 4; ++i) {
    QuerySpec q;
    q.name = "cpu";
    Phase p;
    p.cpu_seconds = 2.0;
    q.phases.push_back(p);
    pids.push_back(engine.AddProcess(q, units::Seconds(0.0)));
  }
  ASSERT_TRUE(engine.Run().ok());
  // 4 processes on 2 cores: each runs at rate 0.5 -> 4 s.
  for (int pid : pids) {
    EXPECT_NEAR(engine.result(pid).latency().value(), 4.0, 1e-6);
  }
}

TEST(EngineTest, ConservationOfDiskBytes) {
  SimConfig cfg = QuietConfig();
  cfg.seek_overhead = 0.08;
  Engine engine(cfg, 7);
  std::vector<int> pids;
  for (int i = 0; i < 3; ++i) {
    pids.push_back(engine.AddProcess(
        ScanQuery("q" + std::to_string(i), i, (200.0 + 100.0 * i) * kMB),
        units::Seconds(static_cast<double>(i))));
  }
  ASSERT_TRUE(engine.Run().ok());
  double total_read = 0.0;
  for (int pid : pids) total_read += engine.result(pid).disk_bytes_read;
  EXPECT_NEAR(total_read, (200.0 + 300.0 + 400.0) * kMB, 10.0);
  // Bytes served can never exceed bandwidth * elapsed time.
  EXPECT_LE(total_read, cfg.seq_bandwidth * engine.now().value() + 1.0);
}

TEST(EngineTest, SpoilerSlowsPrimaryProportionally) {
  SimConfig cfg = QuietConfig();
  Engine engine(cfg, 1);
  for (const QuerySpec& s : MakeSpoiler(cfg, units::Mpl(3))) {
    engine.AddProcess(s, units::Seconds(0.0));
  }
  const int pid = engine.AddProcess(ScanQuery("p", 0, 500.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.RunUntilProcessCompletes(pid).ok());
  // 3 streams (2 spoiler readers + primary): 5 s * 3 = 15 s.
  EXPECT_NEAR(engine.result(pid).latency().value(), 15.0, 1e-6);
}

TEST(EngineTest, RunUntilProcessCompletesIgnoresImmortals) {
  SimConfig cfg = QuietConfig();
  Engine engine(cfg, 1);
  QuerySpec immortal;
  immortal.name = "forever";
  immortal.immortal = true;
  Phase p;
  p.seq_io_bytes = 1e30;
  p.table = -1;
  immortal.phases.push_back(p);
  engine.AddProcess(immortal, units::Seconds(0.0));
  const int pid = engine.AddProcess(ScanQuery("p", 0, 100.0 * kMB), units::Seconds(0.0));
  ASSERT_TRUE(engine.RunUntilProcessCompletes(pid).ok());
  EXPECT_TRUE(engine.result(pid).completed);
  // Run() also terminates: no mortal work remains.
  ASSERT_TRUE(engine.Run().ok());
}

TEST(EngineTest, ZeroDemandCompletionsCanChainProcesses) {
  // With no startup cost, an empty query completes inside the step that
  // starts it, so its callback runs while the engine walks its active set.
  // Each callback adds more processes, reallocating the process table
  // under that walk many times over.
  Engine engine(QuietConfig(), 1);
  QuerySpec empty;
  empty.name = "empty";
  constexpr int kMaxProcesses = 600;
  int completions = 0;
  engine.SetCompletionCallback([&](const ProcessResult& r) {
    ++completions;
    // Copy before AddProcess: the callback's reference dies with it.
    const std::string name = r.name;
    const double end = r.end_time;
    if (name != "empty" || engine.num_processes() >= kMaxProcesses) return;
    engine.AddProcess(empty, units::Seconds(end));
    engine.AddProcess(empty, units::Seconds(end));
    if (completions % 3 == 0) {
      engine.AddProcess(empty, units::Seconds(end + 0.25));
    }
  });
  const int anchor = engine.AddProcess(ScanQuery("anchor", 0, 100.0 * kMB),
                                       units::Seconds(0.0));
  for (int i = 0; i < 8; ++i) engine.AddProcess(empty, units::Seconds(0.0));
  ASSERT_TRUE(engine.Run().ok());

  ASSERT_GE(engine.num_processes(), static_cast<size_t>(kMaxProcesses));
  EXPECT_EQ(static_cast<size_t>(completions), engine.num_processes());
  for (size_t id = 0; id < engine.num_processes(); ++id) {
    const ProcessResult& r = engine.result(static_cast<int>(id));
    EXPECT_TRUE(r.completed) << "process " << id;
    if (static_cast<int>(id) != anchor) {
      EXPECT_EQ(r.end_time, r.start_time) << "process " << id;
    }
  }
  // Empty processes take no disk share: the anchor scans alone.
  EXPECT_NEAR(engine.result(anchor).latency().value(), 1.0, 1e-6);
}

TEST(EngineTest, LongHorizonChainedQueriesKeepProgressing) {
  // 10^5 chained queries spread over 10^8 simulated seconds: near the end
  // one ulp of now() is ~1.5e-8 s, within an order of magnitude of the
  // engine's 1e-7 s arrival guard. Every query must still complete, in
  // order, with a non-negative latency.
  SimConfig cfg;  // noisy defaults: startup cost, jitter, random I/O
  Engine engine(cfg, 7);
  QuerySpec q;
  q.name = "q";
  Phase scan;
  scan.seq_io_bytes = 20.0 * kMB;
  scan.table = 3;
  scan.table_bytes = 20.0 * kMB;
  scan.cpu_seconds = 0.05;
  Phase probe;
  probe.rnd_io_bytes = 1.0 * kMB;
  probe.cpu_seconds = 0.02;
  probe.mem_demand_bytes = 64.0 * kMB;
  probe.spillable = true;
  q.phases = {scan, probe};

  constexpr int kQueries = 100000;
  constexpr double kGap = 2010.0;  // two chains of 5e4 queries each
  int added = 2;  // the two chain heads below
  int completed = 0;
  int bad_latency = 0;
  int out_of_order = 0;
  double last_end = 0.0;
  engine.SetCompletionCallback([&](const ProcessResult& r) {
    ++completed;
    if (r.end_time < r.start_time) ++bad_latency;
    if (r.end_time < last_end) ++out_of_order;
    last_end = r.end_time;
    if (added < kQueries) {
      // Alternate exact gaps with gaps a few ulps off a whole second.
      const double gap = added % 2 == 0 ? kGap : kGap + 3e-8;
      engine.AddProcess(q, units::Seconds(last_end + gap));
      ++added;
    }
  });
  // Two overlapping chains.
  engine.AddProcess(q, units::Seconds(0.0));
  engine.AddProcess(q, units::Seconds(0.01));
  ASSERT_TRUE(engine.Run().ok());

  EXPECT_EQ(added, kQueries);
  EXPECT_EQ(completed, kQueries);
  EXPECT_EQ(bad_latency, 0);
  EXPECT_EQ(out_of_order, 0);
  EXPECT_GE(engine.now().value(), 1e8);
  for (int id = 0; id < kQueries; ++id) {
    ASSERT_TRUE(engine.result(id).completed) << "query " << id;
  }
}

TEST(EngineTest, InvalidProcessIdRejected) {
  Engine engine(QuietConfig(), 1);
  EXPECT_FALSE(engine.RunUntilProcessCompletes(0).ok());
  EXPECT_FALSE(engine.RunUntilProcessCompletes(-1).ok());
}

TEST(EngineTest, RunEngineMatchesAHandDrivenEngine) {
  EngineRun run;
  run.config = QuietConfig();
  run.seed = 9;
  run.specs = MakeSpoiler(run.config, units::Mpl(3));
  run.specs.push_back(ScanQuery("p", 0, 500.0 * kMB));
  run.run_until = static_cast<int>(run.specs.size()) - 1;
  auto out = RunEngine(run);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->results.size(), run.specs.size());

  Engine engine(run.config, run.seed);
  int pid = -1;
  for (const QuerySpec& spec : run.specs) {
    pid = engine.AddProcess(spec, units::Seconds(0.0));
  }
  ASSERT_TRUE(engine.RunUntilProcessCompletes(pid).ok());
  EXPECT_EQ(out->results.back().end_time, engine.result(pid).end_time);
  EXPECT_EQ(out->duration, engine.now().value());
}

TEST(EngineTest, RunEngineRejectsMalformedRuns) {
  EngineRun empty;
  EXPECT_EQ(RunEngine(empty).status().code(), StatusCode::kInvalidArgument);

  EngineRun run;
  run.specs.push_back(ScanQuery("p", 0, 100.0 * kMB));
  for (int bad : {1, 5, -2}) {
    run.run_until = bad;
    EXPECT_EQ(RunEngine(run).status().code(), StatusCode::kInvalidArgument)
        << "run_until " << bad;
  }
  run.run_until = -1;
  EXPECT_TRUE(RunEngine(run).ok());
}

}  // namespace
}  // namespace contender::sim
