// The serve-refit workload: a closed loop against PredictionService.
// Three client threads each answer a fixed seeded stream of calls, one in
// four a 4-entry PredictBatch and the rest single Predict calls, with mix
// sizes 0-4 over the workload's templates. Beside them one writer thread
// runs a fixed number of cycles, each due once the clients have answered
// the next share of their streams: ingest observations (predicting each
// first, the served prediction predict_mre scores), RefitController::Step,
// which refits and publishes, and a standalone Publish of the live
// snapshot, which times the writer seam from outside. Only the writer
// publishes, so its predictions and every published model are a pure
// function of the seed. The sim engine and fleet layers do not run.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cqi.h"
#include "perfbench.h"
#include "sched/mix_oracle.h"
#include "serve/refit_controller.h"
#include "sim/run_cache.h"
#include "util/cacheline.h"
#include "util/random.h"
#include "util/summary_stats.h"

namespace perfbench {
namespace {

using contender::MixObservation;
using contender::Rng;
using contender::SampleStats;
using contender::serve::DegradationTier;
using contender::serve::ModelSnapshot;
using contender::serve::PredictRequest;
using contender::serve::PredictResult;

constexpr int kClients = 3;
constexpr size_t kStreamCalls = 8192;   // cycled by each client
constexpr uint64_t kCallsPerClient = 120000;
constexpr size_t kBatchSize = 4;
constexpr int kWriterCycles = 8;
constexpr size_t kObservationsPerCycle = 32;
constexpr uint64_t kAuditEvery = 64;
constexpr size_t kMicroCalls = 200000;

// One client's calls: a call of one request is a Predict, a call of
// kBatchSize requests a PredictBatch.
using Stream = std::vector<std::vector<PredictRequest>>;

PredictRequest DrawRequest(Rng* rng, int num_templates) {
  PredictRequest r;
  const auto n = static_cast<uint64_t>(num_templates);
  r.template_index = static_cast<int>(rng->UniformInt(n));
  const uint64_t mix_size = rng->UniformInt(5);
  for (uint64_t j = 0; j < mix_size; ++j) {
    r.concurrent.push_back(static_cast<int>(rng->UniformInt(n)));
  }
  return r;
}

Stream MakeStream(uint64_t seed, int num_templates) {
  Rng rng(seed);
  Stream stream(kStreamCalls);
  for (std::vector<PredictRequest>& call : stream) {
    const size_t size = rng.UniformInt(4) == 0 ? kBatchSize : 1;
    for (size_t i = 0; i < size; ++i) {
      call.push_back(DrawRequest(&rng, num_templates));
    }
  }
  return stream;
}

struct alignas(contender::kCacheLineSize) ClientState {
  std::atomic<uint64_t> calls_done{0};
  SampleStats latency_us;
  uint64_t answers = 0;
  uint64_t not_ok = 0;
  std::vector<std::pair<PredictRequest, PredictResult>> audit;
};

struct PassResult {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double wall_s = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double predict_mre = 0.0;
  double tier_full_ratio = 0.0;
  uint64_t ops = 0;
  uint64_t ops_failed = 0;
  uint64_t digest = 0;
  std::vector<std::string> failures;
};

PassResult RunPass(const RunConfig& config, const Setup& setup,
                   const std::vector<Stream>& streams) {
  auto initial = ModelSnapshot::Create(*setup.predictor, 1);
  contender::serve::PredictionService::Options service_options;
  service_options.num_threads = 1;  // 4-entry batches are answered inline
  service_options.health =
      std::make_shared<contender::serve::HealthTracker>(
          initial->num_templates());
  contender::serve::PredictionService service(std::move(initial),
                                              service_options);
  contender::serve::ObservationLog log(&service);
  contender::serve::RefitOptions refit_options;
  refit_options.min_new_observations = kObservationsPerCycle;
  contender::serve::RefitController controller(
      &service, &log, setup.data.observations, refit_options);

  std::vector<ClientState> clients(kClients);
  std::map<uint64_t, std::shared_ptr<const ModelSnapshot>> by_version;
  by_version[service.snapshot()->version()] = service.snapshot();
  std::vector<double> relative_errors;
  std::vector<std::string> writer_failures;
  contender::sim::RunHasher writer_hash;
  const uint64_t total_calls = kCallsPerClient * kClients;

  auto client = [&](int c) {
    ClientState& state = clients[static_cast<size_t>(c)];
    const Stream& stream = streams[static_cast<size_t>(c)];
    for (uint64_t i = 0; i < kCallsPerClient; ++i) {
      const std::vector<PredictRequest>& call = stream[i % stream.size()];
      if (call.size() == 1) {
        const int64_t start = NowNs();
        contender::StatusOr<contender::units::Seconds> answer =
            contender::Status::Internal("unset");
        {
          const ScopedSpan span(SpanName::kPredict);
          answer = service.Predict(call[0].template_index,
                                   call[0].concurrent);
        }
        state.latency_us.Add(static_cast<double>(NowNs() - start) * 1e-3);
        state.not_ok += answer.ok() ? 0 : 1;
      } else {
        const int64_t start = NowNs();
        std::vector<PredictResult> answers;
        {
          const ScopedSpan span(SpanName::kBatch);
          answers = service.PredictBatch(call);
        }
        state.latency_us.Add(static_cast<double>(NowNs() - start) * 1e-3);
        for (size_t j = 0; j < answers.size(); ++j) {
          state.not_ok += answers[j].status.ok() ? 0 : 1;
          if (i % kAuditEvery == 0) state.audit.emplace_back(call[j], answers[j]);
        }
      }
      state.answers += call.size();
      state.calls_done.store(i + 1, std::memory_order_relaxed);
    }
  };

  auto writer = [&] {
    Rng rng(config.seed ^ 0x3e417e5ULL);
    const std::vector<MixObservation>& pool = setup.data.observations;
    for (int k = 1; k <= kWriterCycles; ++k) {
      const uint64_t due = total_calls * static_cast<uint64_t>(k) /
                           (kWriterCycles + 1);
      for (;;) {
        uint64_t done = 0;
        for (const ClientState& s : clients) {
          done += s.calls_done.load(std::memory_order_relaxed);
        }
        if (done >= due) break;
        std::this_thread::yield();
      }
      for (size_t j = 0; j < kObservationsPerCycle; ++j) {
        MixObservation obs = pool[rng.UniformInt(pool.size())];
        obs.latency = obs.latency * (k % 2 == 0 ? 1.1 : 0.95);
        auto predicted =
            service.Predict(obs.primary_index, obs.concurrent_indices);
        if (!predicted.ok()) {
          writer_failures.push_back("writer Predict: " +
                                    predicted.status().ToString());
          continue;
        }
        writer_hash.Add(predicted->value());
        relative_errors.push_back(
            std::fabs(predicted->value() - obs.latency.value()) /
            obs.latency.value());
        const ScopedSpan span(SpanName::kIngest);
        auto ingested = log.Ingest(obs);
        if (!ingested.ok()) {
          writer_failures.push_back("Ingest: " +
                                    ingested.status().ToString());
        }
      }
      contender::StatusOr<contender::serve::RefitStep> step =
          contender::Status::Internal("unset");
      {
        const ScopedSpan span(SpanName::kRefit);
        step = controller.Step();
      }
      if (!step.ok() || !step->refit) {
        writer_failures.push_back(
            "RefitController::Step did not refit: " +
            (step.ok() ? std::string("no trigger") : step.status().ToString()));
        continue;
      }
      writer_hash.Add(step->published_version);
      std::shared_ptr<const ModelSnapshot> live = service.snapshot();
      by_version[live->version()] = live;
      const ScopedSpan span(SpanName::kPublish);
      service.Publish(std::move(live));
    }
  };

  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  const int64_t end = NowNs();

  PassResult pass;
  pass.start_ns = start;
  pass.end_ns = end;
  pass.wall_s = static_cast<double>(end - start) * 1e-9;
  pass.ops_failed = writer_failures.size();
  pass.failures = std::move(writer_failures);
  SampleStats merged;
  uint64_t answers = 0;
  for (const ClientState& s : clients) {
    merged.Merge(s.latency_us);
    answers += s.answers;
    pass.ops_failed += s.not_ok;
  }
  // Every audited batch answer must recompute bit-exactly on the snapshot
  // version that stamped it.
  for (const ClientState& s : clients) {
    for (const auto& [request, result] : s.audit) {
      bool ok = false;
      auto it = by_version.find(result.snapshot_version);
      if (it != by_version.end()) {
        const contender::serve::TieredPrediction again =
            it->second->PredictInMixTiered(
                request.template_index, request.concurrent,
                result.tier == DegradationTier::kFullModel);
        ok = again.latency == result.latency && again.tier == result.tier;
      }
      if (!ok) {
        ++pass.ops_failed;
        pass.failures.push_back("audit failed at snapshot version " +
                                std::to_string(result.snapshot_version));
      }
    }
  }
  pass.ops = answers + relative_errors.size() * 2 + kWriterCycles;
  pass.qps = static_cast<double>(answers) / pass.wall_s;
  pass.p50_us = merged.p50();
  pass.p99_us = merged.p99();
  double sum = 0.0;
  for (double e : relative_errors) sum += e;
  pass.predict_mre =
      relative_errors.empty() ? 0.0
                              : sum / static_cast<double>(relative_errors.size());
  pass.tier_full_ratio =
      static_cast<double>(service.tier_count(DegradationTier::kFullModel)) /
      static_cast<double>(service.served());

  // Deterministic outputs: the writer's served predictions, the published
  // versions, and the final model's answers on a probe of the stream.
  const std::shared_ptr<const ModelSnapshot> final_snapshot =
      service.snapshot();
  writer_hash.Add(final_snapshot->version());
  for (size_t i = 0; i < 256; ++i) {
    for (const PredictRequest& r : streams[0][i]) {
      writer_hash.Add(
          final_snapshot->PredictInMix(r.template_index, r.concurrent)
              .value());
    }
  }
  pass.digest = writer_hash.Digest();
  return pass;
}

// Single-threaded per-call costs of the core predictor and the lock-free
// read path on client 0's stream, each timed as one loop.
void MicroLoops(const Setup& setup, const Stream& stream) {
  std::vector<PredictRequest> requests;
  for (size_t i = 0; requests.size() < kMicroCalls; ++i) {
    for (const PredictRequest& r : stream[i % stream.size()]) {
      requests.push_back(r);
    }
  }
  const contender::ContenderPredictor& predictor = *setup.predictor;
  double sink = 0.0;
  {
    const ScopedSpan span(SpanName::kCorePredict, requests.size());
    for (const PredictRequest& r : requests) {
      sink += contender::sched::PredictInMixUncached(
                  predictor, r.template_index, r.concurrent)
                  .value();
    }
  }
  {
    const ScopedSpan span(SpanName::kCoreCqi, requests.size());
    for (const PredictRequest& r : requests) {
      auto cqi = contender::ComputeCqi(predictor.profiles(),
                                       predictor.scan_times(),
                                       r.template_index, r.concurrent,
                                       contender::CqiVariant::kFull);
      if (cqi.ok()) sink += cqi->value();
    }
  }
  contender::serve::PredictionService service(
      ModelSnapshot::Create(predictor, 1));
  {
    const ScopedSpan span(SpanName::kAcquire, requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      sink += static_cast<double>(service.holder().Acquire().version());
    }
  }
  CONTENDER_CHECK(std::isfinite(sink));
}

}  // namespace

void RunServe(const RunConfig& config, const Setup& setup, Report* report) {
  const int num_templates =
      static_cast<int>(setup.predictor->profiles().size());
  std::vector<Stream> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(MakeStream(config.seed * 7919 + 101 + c, num_templates));
  }

  std::vector<double> qps, p50, p99;
  std::optional<PassResult> first;
  const int min_passes = config.trace ? 2 : 3;
  RepeatPasses(config, min_passes, report, [&](int n) {
    const bool traced = config.trace && n % 2 == 1;
    SetTracing(traced);
    PassResult pass = RunPass(config, setup, streams);
    SetTracing(false);
    if (traced) {
      report->traced_pass_s.push_back(pass.wall_s);
      report->profiles.push_back(
          Profile(Collect(), pass.start_ns, pass.end_ns));
    } else {
      report->pass_s.push_back(pass.wall_s);
      qps.push_back(pass.qps);
      p50.push_back(pass.p50_us);
      p99.push_back(pass.p99_us);
    }
    report->ops += pass.ops;
    report->ops_failed += pass.ops_failed;
    for (std::string& f : pass.failures) {
      report->failures.push_back(std::move(f));
    }
    if (!first.has_value()) {
      first = pass;
      report->digest = pass.digest;
    } else if (pass.digest != first->digest) {
      report->failures.push_back(
          "serve: writer outputs differ from the first pass");
    }
  });
  if (config.trace) {
    SetTracing(true);
    MicroLoops(setup, streams[0]);
    SetTracing(false);
    report->side_profiles.push_back(Profile(Collect(), 0, 0));
  }

  auto& figures = report->figures;
  figures["serve_qps"] = {Median(qps), "1/s"};
  figures["serve_p50_us"] = {Median(p50), "us"};
  figures["serve_p99_us"] = {Median(p99), "us"};
  figures["predict_mre"] = {first->predict_mre, "ratio"};
  report->layer_counts["serve.tier_full_ratio"] = first->tier_full_ratio;
}

}  // namespace perfbench
