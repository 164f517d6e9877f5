// f2pm_perfbench: the benchmark command of the F2PM repository.
//
//   f2pm_perfbench --workload <serve_linear|serve_gbdt|train_pipeline>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human-readable report, a host record, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Every
// workload reports every metric of the requested kind; a per-layer metric
// of a layer the workload does not run reads 0. See perfbench/README.md.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "sim/campaign.hpp"
#include "util/rng.hpp"

namespace perfbench {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

data::AggregationOptions aggregation_options() {
  data::AggregationOptions options;
  options.window_seconds = 30.0;
  return options;
}

data::DataHistory make_campaign(std::uint64_t seed) {
  sim::CampaignConfig config;
  config.seed = seed;
  config.workload.num_browsers = 60;
  // Run by run, exactly as sim::run_campaign draws its per-run seeds, so
  // the result is a prefix of run_campaign(config) and only the runs it
  // keeps are simulated.
  f2pm::util::Rng seed_rng(config.seed);
  data::DataHistory history;
  std::size_t samples = 0;
  for (std::size_t r = 0; samples < kCampaignSamples; ++r) {
    sim::RunResult result =
        sim::execute_run(sim::effective_config(config, r), seed_rng());
    data::Run& run = result.run;
    // The run that crosses the cut keeps its first samples and its failure
    // time, so all of its windows stay labeled.
    run.samples.resize(std::min(run.samples.size(), kCampaignSamples - samples));
    samples += run.samples.size();
    history.add_run(std::move(run));
  }
  return history;
}

namespace {

/// Host-wide CPU time and the part of it the hypervisor gave to others
/// (the "steal" column of /proc/stat), in clock ticks.
std::pair<double, double> cpu_and_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0;
  double steal = 0.0;
  double field = 0.0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {total, steal};
}

}  // namespace

void Result::reject(const std::string& why) {
  correct = false;
  std::printf("CHECK FAILED: %s\n", why.c_str());
}

int Tracer::begin(std::string name) {
  const Clock::time_point now = Clock::now();
  spans_.push_back({std::move(name), now, now});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }

void Tracer::record(std::string name, Clock::time_point start,
                    Clock::time_point end) {
  spans_.push_back({std::move(name), start, end});
}

namespace {

// The metric names of BENCHMARK.json, in its order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"capacity_dps", "dp/s"}, {"cpu_ns_per_dp", "ns"},
      {"p50_ms", "ms"},         {"pipeline_s", "s"},
      {"peak_rss_mb", "MB"},    {"setup_s", "s"}};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> n = {
        {"net.decode_ns_per_dp", "ns"},
        {"net.encode_prediction_ns", "ns"},
        {"net.client_encode_ns_per_dp", "ns"},
        {"net.bytes_per_dp", "B"},
        {"net.writes_per_kdp", "count"},
        {"core.observe_ns_per_dp", "ns"},
        {"data.window_features_ns_per_window", "ns"},
        {"data.aggregate_s", "s"},
        {"ml.predict_ns_per_window", "ns"},
        {"ml.batch_predict_ns_per_row", "ns"},
        {"ml.predict_share_of_cpu", "%"},
        {"saturated.cpu_ns_per_dp", "ns"},
        {"ml.predict_share_of_saturated_cpu", "%"},
        {"ml.best_smae_s", "s"},
        {"core.select_features_s", "s"},
    };
    for (const char* model :
         {"linear", "m5p", "reptree", "lasso", "svm", "svm2", "gbdt"}) {
      n.emplace_back(std::string("ml.fit_s.") + model, "s");
      n.emplace_back(std::string("ml.fit_selected_s.") + model, "s");
      n.emplace_back(std::string("ml.validate_s.") + model, "s");
    }
    for (const auto& extra : std::vector<std::pair<std::string, std::string>>{
             {"serve.scoring_batch_us_p50", "us"},
             {"serve.scoring_batch_us_p99", "us"},
             {"serve.dp_per_batch", "count"},
             {"serve.inbox_depth_max", "count"},
             {"serve.max_thread_busy", "%"},
             {"parallel.task_wait_us_p50", "us"},
             {"parallel.task_wait_us_p99", "us"},
             {"core.predict_us_p99", "us"},
             {"serve.unexplained_ns_per_dp", "ns"},
             {"pipeline.unexplained_s", "s"},
             {"latency.p999_ms", "ms"},
             {"latency.samples", "count"},
             {"gen.lateness_ms_p99", "ms"},
             {"gen.lateness_ms_max", "ms"},
             {"gen.cpu_ns_per_dp", "ns"},
             {"gen.saturate_busy_pct", "%"},
             {"gen.saturate_would_block_pct", "%"},
             {"host.steal_pct", "%"},
             {"untraced.capacity_dps", "dp/s"},
             {"traced.capacity_dps", "dp/s"},
             {"trace_overhead.capacity_dps", "dp/s"},
             {"untraced.cpu_ns_per_dp", "ns"},
             {"traced.cpu_ns_per_dp", "ns"},
             {"trace_overhead.cpu_ns_per_dp", "ns"},
             {"untraced.p50_ms", "ms"},
             {"traced.p50_ms", "ms"},
             {"trace_overhead.p50_ms", "ms"},
             {"untraced.p99_ms", "ms"},
             {"traced.p99_ms", "ms"},
             {"trace_overhead.p99_ms", "ms"},
         }) {
      n.push_back(extra);
    }
    return n;
  }();
  return names;
}

/// Orders the result's metrics as BENCHMARK.json lists them. Per-layer
/// metrics of layers the workload does not run are filled in as 0; any
/// other missing, unknown, duplicated or mis-unit metric is a bug here
/// and rejects the run.
void conform(Result& result, bool trace) {
  const auto& wanted = trace ? per_layer_metrics() : end_to_end_metrics();
  std::map<std::string, Metric> have;
  for (const Metric& m : result.metrics) {
    if (!have.emplace(m.name, m).second) {
      result.reject("metric reported twice: " + m.name);
    }
  }
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : wanted) {
    auto it = have.find(name);
    if (it == have.end()) {
      if (!trace) result.reject("end-to-end metric not measured: " + name);
      ordered.push_back({name, 0.0, unit});
      continue;
    }
    if (it->second.unit != unit) {
      result.reject("metric " + name + " has unit " + it->second.unit);
    }
    if (!std::isfinite(it->second.value)) {
      result.reject("metric " + name + " is not finite");
      it->second.value = 0.0;
    }
    ordered.push_back({name, it->second.value, unit});
    have.erase(it);
  }
  for (const auto& [name, metric] : have) {
    result.reject("metric not declared in BENCHMARK.json: " + name);
  }
  result.metrics = std::move(ordered);
}

void print_result_line(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

void print_host_record(const Options& options) {
  const char* source = std::getenv("PERFBENCH_SOURCE");
  std::printf(
      "host: {\"nproc\": %ld, \"hardware_concurrency\": %u, "
      "\"compiler\": \"g++ %s\", \"build_type\": \"%s\", \"F2PM_SIMD\": %s, "
      "\"source\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_SIMD ? "true" : "false",
      source != nullptr ? source : "unknown", options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "f2pm_perfbench: %s\nusage: f2pm_perfbench --workload "
               "<serve_linear|serve_gbdt|train_pipeline> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds >= 1.0 && options.seconds <= 60.0)) {
        usage("--seconds takes a number from 1 to 60");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  // Line-buffered so a caller reading a pipe sees progress as it happens.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  print_host_record(options);

  Result result;
  const auto [cpu_before, steal_before] = cpu_and_steal_ticks();
  try {
    if (options.workload == "serve_linear") {
      result = run_serve(options, "linear");
    } else if (options.workload == "serve_gbdt") {
      result = run_serve(options, "gbdt");
    } else if (options.workload == "train_pipeline") {
      result = run_train(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "f2pm_perfbench: %s\n", e.what());
    return 1;
  }
  // A busy hypervisor takes CPU from this guest; say how much, so that a
  // slow run on a contended host can be told from a slow program.
  const auto [cpu_after, steal_after] = cpu_and_steal_ticks();
  const double steal_pct = cpu_after > cpu_before
                               ? 100.0 * (steal_after - steal_before) /
                                     (cpu_after - cpu_before)
                               : 0.0;
  std::printf("host CPU stolen by the hypervisor during the run: %.1f%%\n", steal_pct);
  if (options.trace) result.add("host.steal_pct", steal_pct, "%");
  conform(result, options.trace);
  if (result.attempted == 0) result.reject("no operation was attempted");
  print_result_line(result);
  return result.correct ? 0 : 1;
}
