// The benchmark binary: trains the predictor (the timed set-up), runs one
// workload for a wall-clock budget and prints one JSON report line.
// run.py builds it, checks the report and prints the final result.
//
//   perfbench --workload fleet-burst|fleet-steady|serve-refit|static-ml
//             --seed N --seconds S --trace 0|1 --threads T
//
// Untraced runs (--trace 0) report the end-to-end figures; traced runs
// (--trace 1) alternate untraced and traced passes and report per-layer
// self times and counts, the share of a traced pass no span covers, and
// the median traced and untraced pass times (their difference is the
// tracing overhead).

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "perfbench.h"
#include "sim/run_cache.h"

namespace perfbench {
namespace {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "fleet-burst", "fleet-steady", "serve-refit", "static-ml"};
  return names;
}

bool ParseUint(const char* text, uint64_t* out) {
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end && ptr != text;
}

bool ParseArgs(int argc, char** argv, RunConfig* config, std::string* error) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      config->workload = value;
      have_workload = true;
      if (std::find(WorkloadNames().begin(), WorkloadNames().end(),
                    config->workload) == WorkloadNames().end()) {
        *error = "unknown workload '" + config->workload + "'";
        return false;
      }
    } else if (flag == "--seed") {
      if (!ParseUint(value, &number)) {
        *error = std::string("--seed must be a non-negative integer, got '") +
                 value + "'";
        return false;
      }
      config->seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &number) || number < 1 || number > 3600) {
        *error = "--seconds must be an integer in [1, 3600]";
        return false;
      }
      config->seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        *error = "--trace must be 0 or 1";
        return false;
      }
      config->trace = value[0] == '1';
    } else if (flag == "--threads") {
      if (!ParseUint(value, &number) || number < 1 || number > 256) {
        *error = "--threads must be an integer in [1, 256]";
        return false;
      }
      config->threads = static_cast<int>(number);
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed) {
    *error = "--workload and --seed are required";
    return false;
  }
  return true;
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  out += '"';
  return out;
}

// A JSON object built from already-encoded values.
class JsonObject {
 public:
  void Add(const std::string& key, const std::string& encoded) {
    text_ += text_.size() > 1 ? "," : "";
    text_ += Quote(key);
    text_ += ':';
    text_ += encoded;
  }
  std::string Close() const { return text_ + "}"; }

 private:
  std::string text_ = "{";
};

// One CollectAll + Train with the run cache emptied first. A cold set-up
// must simulate every run: a cache hit would time a replay.
contender::ContenderPredictor TimedSetup(const RunConfig& config,
                                         Report* report, Setup* setup) {
  contender::sim::RunCache& cache = contender::sim::RunCache::Global();
  cache.Clear();
  SetTracing(config.trace);
  const int64_t start = NowNs();
  contender::WorkloadSampler::Options sampler_options;
  sampler_options.seed = config.seed;
  sampler_options.threads = config.threads;
  contender::StatusOr<contender::TrainingData> data =
      contender::Status::Internal("unset");
  {
    const ScopedSpan span(SpanName::kCollect);
    contender::WorkloadSampler sampler(&setup->workload, setup->config,
                                       sampler_options);
    data = sampler.CollectAll();
  }
  CONTENDER_CHECK(data.ok()) << data.status();
  contender::ContenderPredictor::Options train_options;
  train_options.train_threads = config.threads;
  contender::StatusOr<contender::ContenderPredictor> predictor =
      contender::Status::Internal("unset");
  {
    const ScopedSpan span(SpanName::kTrain);
    predictor = contender::ContenderPredictor::Train(
        data->profiles, data->scan_times, data->observations, train_options);
  }
  CONTENDER_CHECK(predictor.ok()) << predictor.status();
  report->setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  SetTracing(false);
  if (config.trace) report->side_profiles.push_back(Profile(Collect(), 0, 0));

  if (cache.hits() != 0) {
    report->failures.push_back("a timed set-up hit the run cache " +
                               std::to_string(cache.hits()) + " times");
  }
  report->runcache_hits += cache.hits();
  report->runcache_misses.push_back(static_cast<double>(cache.misses()));
  contender::sim::RunHasher hasher;
  for (const contender::MixObservation& o : data->observations) {
    hasher.Add(o.latency.value());
  }
  if (report->setup_s.size() == 1) {
    report->setup_digest = hasher.Digest();
  } else if (hasher.Digest() != report->setup_digest) {
    report->failures.push_back("a set-up collected different observations");
  }
  setup->data = std::move(*data);
  return std::move(*predictor);
}

enum class Per { kTotalS, kMeanNs, kMeanUs, kMeanMs };

struct LayerMetric {
  SpanName name;
  const char* metric;
  Per per;
};

// The time metric of every span; each also reports "<span>_count".
const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {SpanName::kCollect, "workload.collect_s", Per::kTotalS},
      {SpanName::kTrain, "core.train_s", Per::kTotalS},
      {SpanName::kRoute, "fleet.route_s", Per::kTotalS},
      {SpanName::kExec, "fleet.exec_s", Per::kTotalS},
      {SpanName::kBlame, "fleet.blame_s", Per::kTotalS},
      {SpanName::kMetrics, "fleet.metrics_s", Per::kTotalS},
      {SpanName::kPredict, "serve.predict_us", Per::kMeanUs},
      {SpanName::kBatch, "serve.batch_us", Per::kMeanUs},
      {SpanName::kIngest, "serve.ingest_ns", Per::kMeanNs},
      {SpanName::kRefit, "serve.refit_ms", Per::kMeanMs},
      {SpanName::kPublish, "serve.publish_us", Per::kMeanUs},
      {SpanName::kAcquire, "serve.acquire_ns", Per::kMeanNs},
      {SpanName::kCorePredict, "core.predict_ns", Per::kMeanNs},
      {SpanName::kCoreCqi, "core.cqi_ns", Per::kMeanNs},
      {SpanName::kDataset, "ml.dataset_s", Per::kTotalS},
      {SpanName::kKccaFit, "ml.kcca_fit_s", Per::kTotalS},
      {SpanName::kSvrFit, "ml.svr_fit_s", Per::kTotalS},
      {SpanName::kMlPredict, "ml.predict_us", Per::kMeanUs},
  };
  return metrics;
}

// Per-layer figures of a traced run: for each span, the median over the
// profiles that contain it of its self time (a total, or a mean per
// call) and of its call count.
std::map<std::string, double> LayerFigures(const Report& report) {
  std::map<std::string, double> out = report.layer_counts;
  out["sim.runcache_hits"] = static_cast<double>(report.runcache_hits);
  out["sim.runcache_misses"] = Median(report.runcache_misses);
  std::vector<const PassProfile*> all;
  for (const PassProfile& p : report.profiles) all.push_back(&p);
  for (const PassProfile& p : report.side_profiles) all.push_back(&p);
  for (const LayerMetric& m : LayerMetrics()) {
    const auto index = static_cast<size_t>(m.name);
    std::vector<double> values, counts;
    for (const PassProfile* p : all) {
      const SpanTotals& t = p->by_name[index];
      if (t.ops == 0) continue;
      const double per_call = t.self_s / static_cast<double>(t.ops);
      switch (m.per) {
        case Per::kTotalS: values.push_back(t.self_s); break;
        case Per::kMeanNs: values.push_back(per_call * 1e9); break;
        case Per::kMeanUs: values.push_back(per_call * 1e6); break;
        case Per::kMeanMs: values.push_back(per_call * 1e3); break;
      }
      counts.push_back(static_cast<double>(t.ops));
    }
    out[m.metric] = Median(values);
    out[std::string(SpanNameString(m.name)) + "_count"] = Median(counts);
  }

  std::vector<double> route_us, exec_max_s, exec_us_per_req, uncovered;
  for (size_t i = 0; i < report.profiles.size(); ++i) {
    const PassProfile& p = report.profiles[i];
    for (double d : p.by_name[static_cast<size_t>(SpanName::kRoute)]
                        .durations_s) {
      route_us.push_back(d * 1e6);
    }
    const SpanTotals& exec = p.by_name[static_cast<size_t>(SpanName::kExec)];
    if (exec.ops > 0) {
      exec_max_s.push_back(exec.max_s);
      exec_us_per_req.push_back(exec.self_s / static_cast<double>(exec.ops) *
                                1e6);
    }
    // Against the traced pass's own wall time: an untraced pass runs at
    // another moment, and on a shared host the difference of the two
    // walls is mostly noise.
    const double wall_s = report.traced_pass_s[i];
    uncovered.push_back(std::max(0.0, wall_s - p.covered_s) / wall_s);
  }
  double route_p99 = 0.0;
  if (!route_us.empty()) {
    std::sort(route_us.begin(), route_us.end());
    route_p99 = route_us[std::min(route_us.size() - 1,
                                  static_cast<size_t>(
                                      0.99 * static_cast<double>(
                                                 route_us.size())))];
  }
  out["fleet.route_p99_us"] = route_p99;
  out["fleet.exec_max_node_s"] = Median(exec_max_s);
  out["fleet.exec_us_per_req"] = Median(exec_us_per_req);
  out["trace.uncovered_share"] = Median(uncovered);
  out["trace.pass_s"] = Median(report.traced_pass_s);
  out["trace.untraced_pass_s"] = Median(report.pass_s);
  for (const char* name :
       {"sched.oracle_probes_per_req", "sched.oracle_hit_rate",
        "overload.door_shed_ratio", "overload.node_sheds",
        "serve.tier_full_ratio"}) {
    out.emplace(name, 0.0);
  }
  return out;
}

// Clears VmHWM (Linux >= 4.0); false where /proc does not allow it.
bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// Peak resident set since the last reset (or process start), in MiB.
double PeakRssMb() {
  rusage usage{};
  double kib = 0.0;
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    }
    std::fclose(f);
  }
  if (kib == 0.0 && getrusage(RUSAGE_SELF, &usage) == 0) {
    kib = static_cast<double>(usage.ru_maxrss);
  }
  return kib / 1024.0;
}

bool InstrumentedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return PERFBENCH_INSTRUMENTED != 0;
#endif
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string error;
  if (!ParseArgs(argc, argv, &config, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if ((build_type != "Release" && build_type != "RelWithDebInfo") ||
      InstrumentedBuild()) {
    std::cerr << "perfbench: refusing to time a " << build_type
              << (InstrumentedBuild() ? " sanitizer" : "")
              << " build; its numbers measure a different program\n";
    return 3;
  }

  Report report;
  Setup setup;
  setup.predictor.emplace(TimedSetup(config, &report, &setup));
  if (config.workload == "serve-refit") {
    RunServe(config, setup, &report);
  } else if (config.workload == "static-ml") {
    RunStaticMl(config, setup, &report);
  } else {
    RunFleet(config, setup, &report);
  }

  // The median over passes of each pass's peak, where the kernel lets the
  // counter be reset; the process's peak otherwise.
  const double peak_rss_mb = report.pass_peak_rss_mb.empty()
                                 ? PeakRssMb()
                                 : Median(report.pass_peak_rss_mb);

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(report.digest));
  JsonObject figures;
  for (const auto& [name, figure] : report.figures) {
    JsonObject f;
    f.Add("value", Number(figure.value));
    f.Add("unit", Quote(figure.unit));
    figures.Add(name, f.Close());
  }
  std::string failures = "[";
  for (const std::string& f : report.failures) {
    if (failures.size() > 1) failures += ',';
    failures += Quote(f);
  }
  failures += ']';

  auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (double v : values) {
      if (out.size() > 1) out += ',';
      out += Number(v);
    }
    out += ']';
    return out;
  };
  JsonObject metrics;
  metrics.Add("setup_s", Number(Median(report.setup_s)));
  metrics.Add("peak_rss_mb", Number(peak_rss_mb));
  metrics.Add("pass_s", Number(Median(report.pass_s)));
  JsonObject json;
  json.Add("workload", Quote(config.workload));
  json.Add("seed", std::to_string(config.seed));
  json.Add("trace", config.trace ? "true" : "false");
  json.Add("build_type", Quote(build_type));
  json.Add("compiler", Quote(PERFBENCH_COMPILER));
  json.Add("threads", std::to_string(config.threads));
  json.Add("passes", std::to_string(report.pass_s.size()));
  json.Add("traced_passes", std::to_string(report.traced_pass_s.size()));
  json.Add("metrics", metrics.Close());
  json.Add("setup_s_all", list(report.setup_s));
  json.Add("pass_s_all", list(report.pass_s));
  json.Add("figures", figures.Close());
  if (config.trace) {
    JsonObject layers;
    for (const auto& [name, value] : LayerFigures(report)) {
      layers.Add(name, Number(value));
    }
    json.Add("layers", layers.Close());
  }
  json.Add("digest", Quote(digest));
  json.Add("ops", std::to_string(report.ops));
  json.Add("ops_failed", std::to_string(report.ops_failed));
  json.Add("failures", failures);
  std::cout << json.Close() << std::endl;
  return 0;
}

}  // namespace

void RepeatPasses(const RunConfig& config, int min_passes, Report* report,
                  const std::function<void(int)>& pass) {
  constexpr int kSetupSlots = 16;
  const int64_t start = NowNs();
  const auto budget_ns = static_cast<int64_t>(config.seconds * 1e9);
  int setups = 0;
  for (int n = 0;; ++n) {
    const int64_t elapsed = NowNs() - start;
    if (n >= min_passes && elapsed >= budget_ns) break;
    // Catch up with one set-up per elapsed sixteenth of the budget.
    const int64_t due = std::min<int64_t>(
        kSetupSlots, 1 + elapsed * kSetupSlots / budget_ns);
    for (; setups < due; ++setups) {
      Setup discarded;
      TimedSetup(config, report, &discarded);
    }
    // Hand freed memory back and restart the kernel's peak-RSS counter,
    // so each pass's peak is its own footprint, not whichever malloc
    // arenas earlier passes' threads left fragmented.
    malloc_trim(0);
    const bool reset = ResetPeakRss();
    pass(n);
    if (reset) report->pass_peak_rss_mb.push_back(PeakRssMb());
  }
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
