#include "scrape.hpp"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "net/socket.hpp"

namespace perfbench {

namespace {

/// Splits "name{a="x",le="0.5"}" into the metric name and the value of
/// its `le` label ("" when absent).
std::pair<std::string, std::string> name_and_le(const std::string& series) {
  const std::size_t brace = series.find('{');
  std::string name = series.substr(0, brace);
  std::string le;
  if (brace != std::string::npos) {
    const std::size_t at = series.find("le=\"", brace);
    if (at != std::string::npos) {
      const std::size_t from = at + 4;
      le = series.substr(from, series.find('"', from) - from);
    }
  }
  return {std::move(name), std::move(le)};
}

}  // namespace

Scrape Scrape::fetch(std::uint16_t port) {
  f2pm::net::TcpStream stream = f2pm::net::TcpStream::connect("127.0.0.1", port);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  stream.send_all(request.data(), request.size());
  std::string response;
  std::array<char, 16384> chunk{};
  while (true) {
    std::size_t got = 0;
    if (stream.recv_some(chunk.data(), chunk.size(), got) !=
        f2pm::net::IoResult::kOk) {
      break;
    }
    response.append(chunk.data(), got);
  }
  const std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) {
    throw std::runtime_error("metrics endpoint answered without a body");
  }
  Scrape scrape;
  std::istringstream lines(response.substr(body + 4));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    scrape.series_[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  if (scrape.series_.empty()) {
    throw std::runtime_error("metrics endpoint returned no samples");
  }
  return scrape;
}

double Scrape::sum(const std::string& name) const {
  double total = 0.0;
  for (const auto& [series, value] : series_) {
    if (name_and_le(series).first == name) total += value;
  }
  return total;
}

Scrape::Histogram Scrape::histogram(const std::string& name) const {
  std::map<double, double> by_bound;
  const std::string bucket = name + "_bucket";
  for (const auto& [series, value] : series_) {
    const auto [metric, le] = name_and_le(series);
    if (metric != bucket || le.empty()) continue;
    const double bound =
        le == "+Inf" ? std::numeric_limits<double>::infinity()
                     : std::strtod(le.c_str(), nullptr);
    by_bound[bound] += value;
  }
  Histogram h;
  for (const auto& [bound, count] : by_bound) {
    h.bounds.push_back(bound);
    h.cumulative.push_back(count);
  }
  return h;
}

Scrape::Histogram Scrape::Histogram::minus(const Histogram& earlier) const {
  Histogram delta = *this;
  if (earlier.bounds == bounds) {
    for (std::size_t i = 0; i < cumulative.size(); ++i) {
      delta.cumulative[i] -= earlier.cumulative[i];
    }
  }
  return delta;
}

Scrape::Histogram Scrape::Histogram::plus(const Histogram& other) const {
  if (bounds.empty()) return other;
  Histogram sum = *this;
  if (other.bounds == bounds) {
    for (std::size_t i = 0; i < cumulative.size(); ++i) {
      sum.cumulative[i] += other.cumulative[i];
    }
  }
  return sum;
}

double Scrape::Histogram::quantile(double q) const {
  const double total = count();
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double lower_bound = 0.0;
  double lower_count = 0.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (cumulative[i] >= rank) {
      // The +Inf bucket has no upper edge: report its lower edge.
      if (std::isinf(bounds[i])) return lower_bound;
      const double in_bucket = cumulative[i] - lower_count;
      const double share =
          in_bucket > 0.0 ? (rank - lower_count) / in_bucket : 1.0;
      return lower_bound + (bounds[i] - lower_bound) * share;
    }
    lower_bound = bounds[i];
    lower_count = cumulative[i];
  }
  return lower_bound;
}

std::map<int, double> thread_cpu_snapshot() {
  std::map<int, double> cpu;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return cpu;
  static const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream stat(std::string("/proc/self/task/") + entry->d_name +
                       "/stat");
    std::string text;
    std::getline(stat, text);
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    for (int index = 3; fields >> field; ++index) {
      if (index == 14) utime = std::strtod(field.c_str(), nullptr);
      if (index == 15) {
        stime = std::strtod(field.c_str(), nullptr);
        break;
      }
    }
    cpu[std::atoi(entry->d_name)] = (utime + stime) / ticks;
  }
  closedir(dir);
  return cpu;
}

int current_tid() { return static_cast<int>(syscall(SYS_gettid)); }

}  // namespace perfbench
