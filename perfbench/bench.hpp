// Shared vocabulary of the F2PM benchmark: the campaign every workload
// starts from, clocks, order statistics, the result record the command
// prints, and the in-memory span recorder of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "data/aggregation.hpp"
#include "data/data_history.hpp"

namespace f2pm::core {}
namespace f2pm::ml {}
namespace f2pm::net {}
namespace f2pm::serve {}
namespace f2pm::sim {}

namespace perfbench {

namespace core = f2pm::core;
namespace data = f2pm::data;
namespace ml = f2pm::ml;
namespace net = f2pm::net;
namespace serve = f2pm::serve;
namespace sim = f2pm::sim;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
double thread_cpu_seconds();
/// CPU time of the whole process, all threads.
double process_cpu_seconds();
/// Peak resident set size of the process (VmHWM), in MiB.
double peak_rss_mb();
/// Returns freed heap memory to the system, then restarts the peak RSS
/// count from the current RSS (Linux >= 4.0); returns false where the
/// restart is not possible. Trimming first makes the starting point the
/// live data alone, not whatever the allocator happened to keep.
bool reset_peak_rss();

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// IEEE-754 identity, the equality every correctness check here uses.
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The paper's 30 s aggregation windows, as every workload uses them.
data::AggregationOptions aggregation_options();

/// The campaign every workload starts from: the 60-browser TPC-W study of
/// bench/common.hpp with campaign seed `seed`, cut at exactly
/// kCampaignSamples raw datapoints. The cut keeps the input size fixed
/// across seeds: a 30-run campaign varies by about a quarter in size from
/// seed to seed, and a cut at a run boundary still by a tenth in windows,
/// which the training workload's fit times follow.
inline constexpr std::size_t kCampaignSamples = 24'000;
data::DataHistory make_campaign(std::uint64_t seed);

/// One named, unit-tagged number of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports: the correctness verdict, the
/// operations attempted and failed, and the metrics of the requested kind
/// (end-to-end with tracing off, per-layer with tracing on).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Marks the run incorrect and says why on standard output.
  void reject(const std::string& why);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 2015;
  double seconds = 10.0;
  bool trace = false;
};

/// In-memory span recorder of a traced run. The benchmark records a span
/// around each of its calls into a layer; keeping them is the overhead a
/// traced run measures against the untraced one.
class Tracer {
 public:
  /// Opens a span; returns its id.
  int begin(std::string name);
  void end(int id);
  /// Records an already-timed interval.
  void record(std::string name, Clock::time_point start, Clock::time_point end);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// The workloads. `model` is the registry name of the served model.
Result run_serve(const Options& options, const std::string& model);
Result run_train(const Options& options);

}  // namespace perfbench
