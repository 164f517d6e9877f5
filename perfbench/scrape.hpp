// What the benchmark reads from outside the code it measures: the
// service's Prometheus endpoint and the kernel's per-thread CPU counters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One scrape of a /metrics endpoint: every sample line, keyed by the
/// full series text ("name{labels}").
class Scrape {
 public:
  /// GET /metrics from 127.0.0.1:`port`. Throws std::runtime_error when
  /// the endpoint cannot be reached or answers with no body.
  static Scrape fetch(std::uint16_t port);

  /// Sum over every series of `name` (all label sets, e.g. all shards).
  [[nodiscard]] double sum(const std::string& name) const;

  /// Histogram `name` summed over its label sets: cumulative counts per
  /// upper bound (+Inf last).
  struct Histogram {
    std::vector<double> bounds;
    std::vector<double> cumulative;
    [[nodiscard]] double count() const {
      return cumulative.empty() ? 0.0 : cumulative.back();
    }
    /// Counts of `this` minus `earlier` (same bounds).
    [[nodiscard]] Histogram minus(const Histogram& earlier) const;
    /// Counts of `this` plus `other`; an empty side takes the other's bounds.
    [[nodiscard]] Histogram plus(const Histogram& other) const;
    /// Quantile by linear interpolation inside the bucket that holds it
    /// (Prometheus histogram_quantile); 0 when empty.
    [[nodiscard]] double quantile(double q) const;
  };
  [[nodiscard]] Histogram histogram(const std::string& name) const;

 private:
  std::map<std::string, double> series_;
};

/// Cumulative user+system CPU seconds of every thread of this process,
/// keyed by thread id, from /proc/self/task/*/stat.
std::map<int, double> thread_cpu_snapshot();

/// The calling thread's kernel id.
int current_tid();

}  // namespace perfbench
