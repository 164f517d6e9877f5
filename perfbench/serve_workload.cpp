// The serve workloads: an in-process PredictionService (1 shard, 2 scoring
// threads, metrics endpoint on) fed by ONE generator thread driving 4 TCP
// sessions. Each session replays the campaign's runs with their
// FailEvents, from its own starting run, in 8 KiB writes.
//
// A run goes six times through three parts:
//  - the served model's pipeline (aggregate, build_dataset, fit), timed;
//  - saturate: every session writes as fast as TCP accepts; the service's
//    received-datapoint counter gives capacity_dps;
//  - open loop: datapoint j of a session is due at t0 + j / 125k, so 500k
//    dp/s are offered whatever the service does. A prediction's latency
//    runs from the *scheduled* send time of the datapoint that closed its
//    window, so a stall is charged to every datapoint it delays. Between
//    batches the generator polls without sleeping: a thread woken from a
//    timed sleep on a shared virtual machine runs up to milliseconds late,
//    and that lateness, not the service, then sets the latency.
// Every prediction of both phases is checked, bit for bit, exactly once
// and in order, against an offline OnlinePredictor replay of the exact
// frame sequence the session sent.
//
// A traced run (--trace 1) repeats both phases with a /metrics sampler
// and per-write spans on, then replays each layer alone over the traced
// open-loop streams.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/online.hpp"
#include "data/aggregation.hpp"
#include "data/dataset.hpp"
#include "layers.hpp"
#include "ml/registry.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "scrape.hpp"
#include "serve/model_store.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSessions = 4;
constexpr std::uint64_t kBatchDatapoints = 64;  // 64 x 128 B = 8 KiB writes.
// 500k dp/s in total, about a seventh of what the gbdt service sustains
// saturated. At 2M it runs at the edge of what it sustains in open loop on
// a 4-core host (inboxes reach the backpressure bound, the generator falls
// behind); even at 1M, a few percent of CPU taken by the hypervisor backs
// its inbox up and moves the median latency tenfold. At 500k both models
// keep up through that.
constexpr double kOfferedPerSession = 125'000.0;  // dp/s
// Set-ups before measuring; each round adds one more (see run_serve).
constexpr int kSetups = 3;
// Shares of --seconds: the served model's pipeline, the saturating phase,
// and the rest open loop.
constexpr double kPipelineShare = 0.15;
constexpr double kSaturateShare = 0.35;
// The measured parts alternate this many times, so that each run samples
// the host over its whole length, not over one stretch: on a shared host,
// single-threaded code runs at speeds a third apart in streaks of seconds.
constexpr int kRounds = 6;
constexpr double kDrainTimeoutSeconds = 30.0;
constexpr std::uint64_t kReplayDatapoints = 1'000'000;  // Per session.
// The open-loop figures only mean "at 500k dp/s offered" if the generator
// kept its schedule: a run whose generator was this late, or this busy,
// is invalid rather than fast.
constexpr double kMaxLatenessP99Ms = 20.0;
constexpr double kMaxGeneratorBusy = 0.9;
constexpr double kSamplerPeriodSeconds = 0.02;
// Capacity and CPU per datapoint are taken per 20 ms interval and
// reported as the median over a phase's intervals. Latency percentiles
// are not: they are nearest-rank over every open-loop prediction of the
// run, so a stall counts for every prediction it delays.
constexpr double kIntervalSeconds = 0.02;

constexpr std::size_t kNoTrigger = std::numeric_limits<std::size_t>::max();

/// One prediction the service must send, from the offline replay.
struct Expected {
  std::size_t trigger = kNoTrigger;  ///< Run index of the closing datapoint.
  double window_end = 0.0;
  double rttf = 0.0;
  bool alarm = false;
};

/// The reference: what a fresh OnlinePredictor (and rejuvenation advisor)
/// emits for the first `prefix` datapoints of `run`, plus the flush a Bye
/// triggers when `flush` is set. The service resets both on FailEvent,
/// so a full run's predictions do not depend on what preceded it.
std::vector<Expected> reference(const data::Run& run,
                                const std::shared_ptr<const ml::Regressor>& model,
                                std::size_t prefix, bool flush) {
  core::OnlinePredictor predictor(model, aggregation_options());
  core::RejuvenationAdvisor advisor(serve::ServiceOptions{}.advisor);
  std::vector<Expected> out;
  for (std::size_t i = 0; i < prefix; ++i) {
    if (auto p = predictor.observe(run.samples[i])) {
      out.push_back({i, p->window_end, p->rttf, advisor.update(*p)});
    }
  }
  if (flush) {
    if (auto p = predictor.flush()) {
      out.push_back({kNoTrigger, p->window_end, p->rttf, advisor.update(*p)});
    }
  }
  return out;
}

/// Everything a run sets up before it measures: campaign, served model,
/// running service.
struct Fixture {
  data::DataHistory history;
  data::Dataset dataset;
  std::shared_ptr<const ml::Regressor> model;
  std::shared_ptr<serve::ModelStore> store;
  std::unique_ptr<serve::PredictionService> service;
  double setup_s = 0.0;
};

Fixture set_up(std::uint64_t seed, const std::string& model_name) {
  Fixture fx;
  const Clock::time_point start = Clock::now();
  fx.history = make_campaign(seed);
  fx.dataset = data::build_dataset(data::aggregate(fx.history, aggregation_options()));
  std::shared_ptr<ml::Regressor> model = ml::make_model(model_name);
  model->fit(fx.dataset.x, fx.dataset.y);
  fx.model = std::move(model);
  fx.store = std::make_shared<serve::ModelStore>();
  fx.store->swap(fx.model);
  serve::ServiceOptions options;
  options.shards = 1;
  options.scoring_threads = 2;
  options.metrics_port = 0;
  options.aggregation = aggregation_options();
  fx.service = std::make_unique<serve::PredictionService>(options, fx.store);
  fx.setup_s = seconds_between(start, Clock::now());
  return fx;
}

/// The served model's pipeline, history -> fitted model, timed alone and
/// repeated (at least kMinPipelines times, and for `seconds`), adding to
/// `times`. The run reports the median repetition: a 100-round fit uses
/// the thread pool, and its fastest repetition swings between runs more
/// than its median does.
struct PipelineTimes {
  std::vector<double> pipeline_s;
  std::vector<double> aggregate_s;  ///< aggregate + build_dataset.
  std::vector<double> fit_s;
};

constexpr int kMinPipelines = 3;

void time_pipeline(const data::DataHistory& history, const std::string& model_name,
                   double seconds, PipelineTimes& times) {
  const Clock::time_point begin = Clock::now();
  const std::size_t before = times.pipeline_s.size();
  do {
    const Clock::time_point t0 = Clock::now();
    const data::Dataset dataset =
        data::build_dataset(data::aggregate(history, aggregation_options()));
    const Clock::time_point t1 = Clock::now();
    ml::make_model(model_name)->fit(dataset.x, dataset.y);
    const Clock::time_point t2 = Clock::now();
    times.pipeline_s.push_back(seconds_between(t0, t2));
    times.aggregate_s.push_back(seconds_between(t0, t1));
    times.fit_s.push_back(seconds_between(t1, t2));
  } while (times.pipeline_s.size() < before + kMinPipelines ||
           seconds_between(begin, Clock::now()) < seconds);
}

/// Generator-side state of one TCP session.
struct Session {
  Session(net::TcpStream s, const EncodedCampaign& campaign, std::size_t start)
      : stream(std::move(s)), cursor(campaign, start), start_run(start) {}

  net::TcpStream stream;
  StreamCursor cursor;
  std::size_t start_run;
  std::vector<std::uint8_t> out;  ///< The write in progress.
  std::size_t out_pos = 0;
  bool bye_queued = false;
  bool write_shut = false;
  bool eof = false;
  net::FrameDecoder decoder;

  // Reference cursor: the next prediction this session must receive.
  std::size_t check_slot = 0;
  std::size_t check_index = 0;
  std::uint64_t check_base = 0;  ///< Session index of that run's first dp.
  std::size_t final_slot = 0;    ///< Set with the Bye: the cut run.
  std::vector<Expected> final_run;

  [[nodiscard]] bool pending() const { return out_pos < out.size(); }
};

/// One kind of phase (saturate or open loop), accumulated over the rounds
/// of a run.
struct PhaseStats {
  double seconds = 0.0;        ///< Measured wall time.
  std::uint64_t datapoints = 0;
  double generator_cpu_s = 0.0;
  /// Open loop: wall time of generator passes that found nothing to do.
  double generator_idle_s = 0.0;
  std::vector<double> interval_dps;         ///< Received by the service.
  std::vector<double> interval_cpu_ns_per_dp;  ///< Process minus generator.
  std::vector<double> latency_ms;  ///< Every open-loop prediction.
  std::vector<double> lateness_ms;
  std::uint64_t writes = 0;
  std::uint64_t would_block = 0;  ///< Writes TCP refused: its buffer was full.
  std::uint64_t expected = 0;
  std::uint64_t errors = 0;
  std::vector<SentStream> streams;
  // Traced phases only: /metrics around each phase, and what was sampled.
  std::vector<std::pair<Scrape, Scrape>> scrapes;
  double inbox_depth_max = 0.0;
  std::vector<double> max_thread_busy;

  [[nodiscard]] double capacity_dps() const { return median(interval_dps); }
  [[nodiscard]] double cpu_ns_per_dp() const {
    return median(interval_cpu_ns_per_dp);
  }
  /// The generator's CPU less its idle polling: the work of generating.
  [[nodiscard]] double generator_work_s() const {
    return std::max(0.0, generator_cpu_s - generator_idle_s);
  }
  [[nodiscard]] double generator_ns_per_dp() const {
    return datapoints > 0 ? generator_work_s() * 1e9 / static_cast<double>(datapoints)
                          : 0.0;
  }
  [[nodiscard]] double generator_busy() const {
    return seconds > 0.0 ? generator_work_s() / seconds : 0.0;
  }
  [[nodiscard]] double would_block_share() const {
    return writes > 0 ? static_cast<double>(would_block) / static_cast<double>(writes)
                      : 0.0;
  }
  [[nodiscard]] double latency_ms_at(double q) const { return quantile(latency_ms, q); }
  /// Histogram `name` over the traced phases.
  [[nodiscard]] Scrape::Histogram scraped(const std::string& name) const {
    Scrape::Histogram total;
    for (const auto& [before, after] : scrapes) {
      total = total.plus(after.histogram(name).minus(before.histogram(name)));
    }
    return total;
  }
  [[nodiscard]] double scraped_sum(const std::string& name) const {
    double total = 0.0;
    for (const auto& [before, after] : scrapes) {
      total += after.sum(name) - before.sum(name);
    }
    return total;
  }
};

/// Counters read every kIntervalSeconds during a phase.
struct IntervalSample {
  double t = 0.0;
  double received = 0.0;  ///< Datapoints the service has received.
  double process_cpu = 0.0;
  double generator_cpu = 0.0;
};

class Generator {
 public:
  Generator(Fixture& fx, const EncodedCampaign& campaign,
            const std::vector<std::vector<Expected>>& expected)
      : fx_(fx), campaign_(campaign), expected_(expected) {}

  /// Runs one phase and adds what it measured to `stats`.
  void run(bool open_loop, double seconds, Tracer* tracer, PhaseStats& stats);

 private:
  bool flush_out(Session& s);
  void drain_reads(Session& s, Clock::time_point t0);
  const Expected* next_expected(Session& s);
  void on_prediction(Session& s, const net::Prediction& p, double arrival_s);
  void queue_bye(Session& s);

  Fixture& fx_;
  const EncodedCampaign& campaign_;
  const std::vector<std::vector<Expected>>& expected_;
  PhaseStats* stats_ = nullptr;
  bool open_loop_ = false;
  Tracer* tracer_ = nullptr;
  std::uint32_t version_ = 0;
  std::uint64_t work_ = 0;  ///< Bytes sent and received, for idle passes.
};

bool Generator::flush_out(Session& s) {
  while (s.pending() && !s.eof) {
    std::size_t sent = 0;
    const Clock::time_point start = Clock::now();
    net::IoResult io = net::IoResult::kWouldBlock;
    try {
      io = s.stream.send_some(s.out.data() + s.out_pos,
                              s.out.size() - s.out_pos, sent);
    } catch (const std::exception&) {
      // The service dropped the session: what it did not answer is
      // counted missing at the end of the phase.
      ++stats_->errors;
      s.eof = true;
      return false;
    }
    ++stats_->writes;
    if (tracer_ != nullptr) tracer_->record("gen.write", start, Clock::now());
    if (io == net::IoResult::kWouldBlock) {
      ++stats_->would_block;
      return false;
    }
    s.out_pos += sent;
    work_ += sent;
  }
  if (s.bye_queued && !s.write_shut) {
    s.stream.shutdown_write();
    s.write_shut = true;
  }
  return true;
}

void Generator::queue_bye(Session& s) {
  s.out.clear();
  s.out_pos = 0;
  net::FrameEncoder::encode_bye(s.out);
  s.bye_queued = true;
  // Only now is the cut known: the current run was sent up to in_run().
  s.final_slot = s.cursor.slot();
  s.final_run = reference(fx_.history.runs()[s.cursor.run()], fx_.model,
                          s.cursor.in_run(), /*flush=*/true);
  stats_->streams.push_back({s.start_run, s.cursor.datapoints()});
}

const Expected* Generator::next_expected(Session& s) {
  while (true) {
    if (s.bye_queued && s.check_slot > s.final_slot) return nullptr;
    const bool final = s.bye_queued && s.check_slot == s.final_slot;
    const std::size_t run = (s.start_run + s.check_slot) % campaign_.num_runs();
    const std::vector<Expected>& list = final ? s.final_run : expected_[run];
    if (s.check_index < list.size()) return &list[s.check_index];
    if (final) return nullptr;
    // A run still being sent may have more predictions to come.
    if (s.check_slot >= s.cursor.slot()) return nullptr;
    s.check_base += campaign_.run_length(run);
    ++s.check_slot;
    s.check_index = 0;
  }
}

void Generator::on_prediction(Session& s, const net::Prediction& p,
                              double arrival_s) {
  const Expected* e = next_expected(s);
  if (e == nullptr) {  // More predictions than the stream can produce.
    ++stats_->errors;
    return;
  }
  ++s.check_index;
  ++stats_->expected;
  if (!same_bits(e->window_end, p.window_end) || !same_bits(e->rttf, p.rttf) ||
      e->alarm != p.alarm || p.model_version != version_) {
    ++stats_->errors;
    return;
  }
  if (open_loop_ && e->trigger != kNoTrigger) {
    const double due_s =
        static_cast<double>(s.check_base + e->trigger) / kOfferedPerSession;
    stats_->latency_ms.push_back((arrival_s - due_s) * 1e3);
  }
}

void Generator::drain_reads(Session& s, Clock::time_point t0) {
  std::uint8_t buffer[65536];
  while (!s.eof) {
    std::size_t got = 0;
    const Clock::time_point start = Clock::now();
    net::IoResult io;
    try {
      io = s.stream.recv_some(buffer, sizeof buffer, got);
    } catch (const std::exception&) {
      io = net::IoResult::kEof;  // A reset session loses its predictions.
    }
    if (io == net::IoResult::kWouldBlock) return;
    if (io == net::IoResult::kEof) {
      s.eof = true;
      return;
    }
    const double arrival_s = seconds_between(t0, Clock::now());
    work_ += got;
    try {
      s.decoder.feed(buffer, got);
      while (auto view = s.decoder.next_view()) {
        if (view->type() == net::FrameType::kPrediction) {
          on_prediction(s, view->prediction(), arrival_s);
        } else {
          ++stats_->errors;
        }
      }
    } catch (const net::ProtocolError&) {
      ++stats_->errors;
      s.eof = true;
    }
    if (tracer_ != nullptr) tracer_->record("gen.read", start, Clock::now());
  }
}

void Generator::run(bool open_loop, double seconds, Tracer* tracer, PhaseStats& stats) {
  stats_ = &stats;
  open_loop_ = open_loop;
  tracer_ = tracer;
  const int span =
      tracer != nullptr ? tracer->begin(open_loop ? "phase.open_loop" : "phase.saturate")
                        : -1;
  version_ = fx_.store->version();
  serve::PredictionService& service = *fx_.service;
  const std::uint16_t metrics_port = service.metrics_port();

  std::vector<Session> sessions;
  sessions.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    net::TcpStream stream = net::TcpStream::connect("127.0.0.1", service.port());
    net::send_hello(stream, net::Hello{net::kProtocolVersion,
                                       "perfbench-" + std::to_string(i)});
    stream.set_nonblocking(true);
    sessions.emplace_back(std::move(stream), campaign_,
                          i * campaign_.num_runs() / kSessions);
  }

  // Traced phases: /metrics before and after, and a sampler for the inbox
  // depth gauge, which only a reading taken during the run can show.
  struct Sampler {
    std::atomic<bool> running{true};
    std::atomic<int> tid{-1};
    std::atomic<bool> failed{false};
    std::thread thread;
    void stop() {
      running = false;
      if (thread.joinable()) thread.join();
    }
    ~Sampler() { stop(); }
  } sampler;
  std::optional<Scrape> scrape_before;
  if (tracer != nullptr) {
    scrape_before = Scrape::fetch(metrics_port);
    sampler.thread = std::thread([&] {
      sampler.tid = current_tid();
      while (sampler.running.load()) {
        try {
          const double depth =
              Scrape::fetch(metrics_port).sum("f2pm_serve_inbox_depth");
          stats.inbox_depth_max = std::max(stats.inbox_depth_max, depth);
        } catch (const std::exception&) {
          sampler.failed = true;
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(kSamplerPeriodSeconds));
      }
    });
  }
  const std::map<int, double> threads_before =
      tracer != nullptr ? thread_cpu_snapshot() : std::map<int, double>{};
  const int generator_tid = current_tid();

  const serve::ServiceStats service_before = service.stats();
  const double generator_before = thread_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t scheduled =
      static_cast<std::uint64_t>(seconds * kOfferedPerSession);
  std::vector<IntervalSample> samples;
  const auto sample = [&](double t) {
    samples.push_back({t, static_cast<double>(service.stats().datapoints_received),
                       process_cpu_seconds(), thread_cpu_seconds()});
  };
  sample(0.0);
  std::optional<Clock::time_point> drain_deadline;

  std::vector<pollfd> fds;
  std::vector<Session*> polled;  // The session of each pollfd.
  while (true) {
    const Clock::time_point now = Clock::now();
    const std::uint64_t work_before = work_;
    const double elapsed = seconds_between(t0, now);
    const double next_sample = kIntervalSeconds * static_cast<double>(samples.size());
    if (elapsed >= next_sample && next_sample <= seconds + 1e-9) sample(elapsed);
    bool scheduling = false;
    for (Session& s : sessions) {
      if (s.eof) continue;
      if (s.bye_queued) {
        flush_out(s);
        continue;
      }
      if (s.pending() && !flush_out(s)) {
        scheduling = true;
        continue;
      }
      std::uint64_t due = s.cursor.datapoints();
      if (open_loop) {
        // Datapoint j is due at j / rate; it goes out with the whole 8 KiB
        // batch it belongs to, once the batch's last datapoint is due.
        due = std::min<std::uint64_t>(
            scheduled, static_cast<std::uint64_t>(elapsed * kOfferedPerSession) + 1);
        if (due < scheduled) due -= due % kBatchDatapoints;
      } else if (elapsed < seconds) {
        due = std::numeric_limits<std::uint64_t>::max();
      }
      // A bounded number of writes per session per pass, so that one
      // session the service drains instantly cannot starve the others.
      for (int batch = 0; batch < 8 && !s.pending() && s.cursor.datapoints() < due;
           ++batch) {
        const std::uint64_t first = s.cursor.datapoints();
        if (open_loop) {
          stats.lateness_ms.push_back(
              (elapsed - static_cast<double>(first) / kOfferedPerSession) * 1e3);
        }
        s.out.clear();
        s.out_pos = 0;
        s.cursor.append(s.out, std::min(kBatchDatapoints, due - first));
        flush_out(s);
      }
      const bool done = open_loop ? s.cursor.datapoints() >= scheduled
                                  : elapsed >= seconds;
      if (done && !s.pending()) {
        queue_bye(s);
        flush_out(s);
      } else {
        scheduling = true;
      }
    }
    if (!scheduling && !drain_deadline) {
      drain_deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(kDrainTimeoutSeconds));
    }

    fds.clear();
    polled.clear();
    for (Session& s : sessions) {
      if (s.eof) continue;
      fds.push_back({s.stream.fd(),
                     static_cast<short>(POLLIN | (s.pending() ? POLLOUT : 0)), 0});
      polled.push_back(&s);
    }
    if (fds.empty()) break;
    if (drain_deadline && Clock::now() > *drain_deadline) break;

    // Saturating, sleep until a session is writable or the phase ends; in
    // open loop, poll on until every batch has gone out.
    double wait_s = 0.05;
    if (scheduling) {
      if (open_loop) {
        wait_s = 0.0;
      } else {
        wait_s = seconds - seconds_between(t0, Clock::now());
        for (const Session& s : sessions) {
          if (!s.bye_queued && !s.pending()) wait_s = 0.0;  // Writable now.
        }
      }
      wait_s = std::clamp(wait_s, 0.0, 0.05);
    }
    const double next_tick = kIntervalSeconds * static_cast<double>(samples.size());
    if (next_tick <= seconds + 1e-9) {
      wait_s = std::clamp(next_tick - seconds_between(t0, Clock::now()), 0.0, wait_s);
    }
    timespec timeout{0, static_cast<long>(wait_s * 1e9)};
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        drain_reads(*polled[i], t0);
      }
    }
    if (open_loop && wait_s == 0.0 && work_ == work_before) {
      stats.generator_idle_s += seconds_between(now, Clock::now());
    }
  }
  const Clock::time_point t1 = Clock::now();
  const double generator_cpu = thread_cpu_seconds() - generator_before;
  const serve::ServiceStats service_after = service.stats();

  if (tracer != nullptr) {
    sampler.stop();
    stats.scrapes.emplace_back(std::move(*scrape_before), Scrape::fetch(metrics_port));
    if (sampler.failed) ++stats.errors;  // A scrape of the live service failed.
    const std::map<int, double> threads_after = thread_cpu_snapshot();
    const double wall = seconds_between(t0, t1);
    double busiest = 0.0;
    for (const auto& [tid, cpu] : threads_after) {
      if (tid == generator_tid || tid == sampler.tid.load()) continue;
      const auto it = threads_before.find(tid);
      const double used = cpu - (it != threads_before.end() ? it->second : 0.0);
      busiest = std::max(busiest, 100.0 * used / wall);
    }
    stats.max_thread_busy.push_back(busiest);
    tracer->end(span);
  }

  // Whatever was not received is missing.
  for (Session& s : sessions) {
    if (!s.bye_queued) {
      queue_bye(s);  // Timed out mid-stream: close the reference too.
      ++stats.errors;
    }
    while (next_expected(s) != nullptr) {
      ++s.check_index;
      ++stats.expected;
      ++stats.errors;
    }
    stats.datapoints += s.cursor.datapoints();
  }
  stats.seconds += seconds_between(t0, t1);
  stats.generator_cpu_s += generator_cpu;
  // Rejected, evicted or violating sessions fail the run too.
  stats.errors += (service_after.sessions_rejected - service_before.sessions_rejected) +
                  (service_after.sessions_evicted - service_before.sessions_evicted) +
                  (service_after.protocol_errors - service_before.protocol_errors);

  for (std::size_t i = 1; i < samples.size(); ++i) {
    const IntervalSample& a = samples[i - 1];
    const IntervalSample& b = samples[i];
    stats.interval_dps.push_back((b.received - a.received) / (b.t - a.t));
    if (b.received > a.received) {
      stats.interval_cpu_ns_per_dp.push_back(
          ((b.process_cpu - a.process_cpu) - (b.generator_cpu - a.generator_cpu)) *
          1e9 / (b.received - a.received));
    }
  }
}

}  // namespace

Result run_serve(const Options& options, const std::string& model_name) {
  Result result;
  Tracer tracer;

  // Set-up, several times: the last fixture is the one measured. setup_s
  // is the median of these and of one more set-up per round: on a shared
  // host, single-threaded code runs at speeds a third apart in streaks of
  // seconds, so set-ups made only at the start sample one streak.
  std::vector<double> setup_s;
  Fixture fx;
  for (int i = 0; i < kSetups; ++i) {
    if (fx.service) fx.service->stop();
    ScopedSpan span(tracer, "setup");
    fx = set_up(options.seed, model_name);
    setup_s.push_back(fx.setup_s);
  }
  std::printf("campaign: seed %llu, %zu runs, %zu datapoints, %zu windows; "
              "model %s; setup %.3f s (median of the first %d)\n",
              static_cast<unsigned long long>(options.seed),
              fx.history.num_runs(), fx.history.num_samples(),
              fx.dataset.num_rows(), model_name.c_str(), median(setup_s), kSetups);

  const EncodedCampaign campaign(fx.history);
  std::vector<std::vector<Expected>> expected;
  for (const data::Run& run : fx.history.runs()) {
    expected.push_back(reference(run, fx.model, run.samples.size(), false));
  }

  Generator generator(fx, campaign, expected);
  const double saturate_s = kSaturateShare * options.seconds / kRounds;
  const double open_s =
      (1.0 - kPipelineShare - kSaturateShare) * options.seconds / kRounds;
  const auto report = [&](const char* label, const PhaseStats& sat,
                          const PhaseStats& open) {
    std::printf(
        "%s: capacity %.0f dp/s (%.2f s saturated; generator busy %.0f%%, "
        "%.0f%% of its writes would block); open loop at %.0f dp/s offered for "
        "%.2f s: p50 %.3f ms, p99 %.3f ms, p99.9 %.3f ms over %zu predictions, "
        "service CPU %.1f ns/dp, generator %.1f ns/dp (busy %.0f%%), lateness "
        "p99 %.3f ms max %.3f ms, %.1f writes/kdp; predictions checked %llu, "
        "errors %llu\n",
        label, sat.capacity_dps(), sat.seconds, 100.0 * sat.generator_busy(),
        100.0 * sat.would_block_share(), kSessions * kOfferedPerSession,
        open.seconds, open.latency_ms_at(0.5), open.latency_ms_at(0.99),
        open.latency_ms_at(0.999), open.latency_ms.size(), open.cpu_ns_per_dp(),
        open.generator_ns_per_dp(),
        100.0 * open.generator_busy(), quantile(open.lateness_ms, 0.99),
        quantile(open.lateness_ms, 1.0),
        1e3 * static_cast<double>(open.writes) / static_cast<double>(open.datapoints),
        static_cast<unsigned long long>(sat.expected + open.expected),
        static_cast<unsigned long long>(sat.errors + open.errors));
  };
  const auto account = [&](const PhaseStats& sat, const PhaseStats& open) {
    result.attempted += sat.expected + open.expected;
    result.failed += sat.errors + open.errors;
    if (sat.errors + open.errors > 0) {
      result.reject("served predictions differ from the offline replay");
    }
    const double late = quantile(open.lateness_ms, 0.99);
    if (late > kMaxLatenessP99Ms || open.generator_busy() > kMaxGeneratorBusy) {
      result.reject("invalid run: the generator could not keep its schedule");
    }
    // Saturated, the service should be the limit: the generator then waits
    // for TCP to take more. A generator busy all the time measures itself.
    if (sat.generator_busy() > kMaxGeneratorBusy) {
      result.reject("invalid run: the generator, not the service, limited capacity");
    }
  };
  PipelineTimes pipeline;
  // peak_rss_mb is the peak of the measured parts: the count restarts
  // after each set-up, and the peak before each restart is kept.
  double peak_mb = 0.0;
  const auto measure = [&](Tracer* traced, PhaseStats& sat, PhaseStats& open) {
    for (int round = 0; round < kRounds; ++round) {
      if (traced == nullptr) {
        if (round > 0) peak_mb = std::max(peak_mb, peak_rss_mb());
        setup_s.push_back(set_up(options.seed, model_name).setup_s);
        reset_peak_rss();
        time_pipeline(fx.history, model_name,
                      kPipelineShare * options.seconds / kRounds, pipeline);
      }
      generator.run(false, saturate_s, traced, sat);
      generator.run(true, open_s, traced, open);
    }
  };

  // Room for every open-loop prediction up front (a window holds two
  // datapoints or more), so that the vector never grows by copying: the
  // pages it does not use are never touched and cost no RSS.
  const auto reserve = [&](PhaseStats& phase) {
    phase.latency_ms.reserve(static_cast<std::size_t>(
        kRounds * kSessions * open_s * kOfferedPerSession / 2.0));
  };
  PhaseStats sat, open;
  reserve(open);
  measure(nullptr, sat, open);
  report("untraced", sat, open);
  account(sat, open);
  const double pipeline_s = median(pipeline.pipeline_s);

  if (!options.trace) {
    result.add("capacity_dps", sat.capacity_dps(), "dp/s");
    result.add("cpu_ns_per_dp", open.cpu_ns_per_dp(), "ns");
    result.add("p50_ms", open.latency_ms_at(0.5), "ms");
    result.add("pipeline_s", pipeline_s, "s");
    result.add("peak_rss_mb", std::max(peak_mb, peak_rss_mb()), "MB");
    result.add("setup_s", median(setup_s), "s");
    fx.service->stop();
    return result;
  }

  PhaseStats tsat, topen;
  reserve(topen);
  measure(&tracer, tsat, topen);
  report("traced", tsat, topen);
  account(tsat, topen);
  fx.service->stop();

  const ServeLayerCosts serve_costs =
      replay_serve_layers(campaign, fx.model, topen.streams, kReplayDatapoints, tracer);
  const ModelLayerCosts model_costs =
      replay_model_layers(fx.history, fx.dataset, *fx.model, 0.2, tracer);

  const double untraced_cpu = open.cpu_ns_per_dp();
  const double windows_per_dp = serve_costs.predictions_per_dp;
  const double explained = serve_costs.decode_ns_per_dp + serve_costs.observe_ns_per_dp +
                           serve_costs.encode_prediction_ns * windows_per_dp;
  const double predict_per_dp = model_costs.predict_ns_per_window * windows_per_dp;

  const Scrape::Histogram batches = topen.scraped("f2pm_serve_scoring_batch_seconds");
  const Scrape::Histogram waits = topen.scraped("f2pm_pool_task_wait_seconds");
  const Scrape::Histogram predicts = topen.scraped("f2pm_core_predict_seconds");
  const double batch_dps = topen.scraped_sum("f2pm_serve_datapoints_received_total");

  result.add("net.decode_ns_per_dp", serve_costs.decode_ns_per_dp, "ns");
  result.add("net.encode_prediction_ns", serve_costs.encode_prediction_ns, "ns");
  result.add("net.client_encode_ns_per_dp", serve_costs.client_encode_ns_per_dp, "ns");
  result.add("net.bytes_per_dp", serve_costs.bytes_per_dp, "B");
  result.add("net.writes_per_kdp",
             1e3 * static_cast<double>(open.writes) / static_cast<double>(open.datapoints),
             "count");
  result.add("core.observe_ns_per_dp", serve_costs.observe_ns_per_dp, "ns");
  result.add("data.window_features_ns_per_window",
             model_costs.window_features_ns_per_window, "ns");
  result.add("data.aggregate_s", median(pipeline.aggregate_s), "s");
  result.add("ml.predict_ns_per_window", model_costs.predict_ns_per_window, "ns");
  result.add("ml.batch_predict_ns_per_row", model_costs.batch_predict_ns_per_row, "ns");
  result.add("ml.predict_share_of_cpu", 100.0 * predict_per_dp / untraced_cpu, "%");
  result.add("saturated.cpu_ns_per_dp", sat.cpu_ns_per_dp(), "ns");
  result.add("ml.predict_share_of_saturated_cpu",
             100.0 * predict_per_dp / sat.cpu_ns_per_dp(), "%");
  result.add("ml.fit_s." + model_name, median(pipeline.fit_s), "s");
  result.add("serve.scoring_batch_us_p50", 1e6 * batches.quantile(0.5), "us");
  result.add("serve.scoring_batch_us_p99", 1e6 * batches.quantile(0.99), "us");
  result.add("serve.dp_per_batch", batches.count() > 0 ? batch_dps / batches.count() : 0.0,
             "count");
  result.add("serve.inbox_depth_max", topen.inbox_depth_max, "count");
  // Saturated, the busiest thread names what limits capacity_dps.
  result.add("serve.max_thread_busy", median(tsat.max_thread_busy), "%");
  result.add("parallel.task_wait_us_p50", 1e6 * waits.quantile(0.5), "us");
  result.add("parallel.task_wait_us_p99", 1e6 * waits.quantile(0.99), "us");
  result.add("core.predict_us_p99", 1e6 * predicts.quantile(0.99), "us");
  result.add("serve.unexplained_ns_per_dp", untraced_cpu - explained, "ns");
  result.add("gen.lateness_ms_p99", quantile(open.lateness_ms, 0.99), "ms");
  result.add("gen.lateness_ms_max", quantile(open.lateness_ms, 1.0), "ms");
  result.add("gen.cpu_ns_per_dp", open.generator_ns_per_dp(), "ns");
  const auto both = [&](const std::string& name, double untraced, double traced,
                        const std::string& unit) {
    result.add("untraced." + name, untraced, unit);
    result.add("traced." + name, traced, unit);
    result.add("trace_overhead." + name, traced - untraced, unit);
  };
  both("capacity_dps", sat.capacity_dps(), tsat.capacity_dps(), "dp/s");
  both("cpu_ns_per_dp", open.cpu_ns_per_dp(), topen.cpu_ns_per_dp(), "ns");
  both("p50_ms", open.latency_ms_at(0.5), topen.latency_ms_at(0.5), "ms");
  both("p99_ms", open.latency_ms_at(0.99), topen.latency_ms_at(0.99), "ms");
  result.add("latency.p999_ms", open.latency_ms_at(0.999), "ms");
  result.add("latency.samples", static_cast<double>(open.latency_ms.size()), "count");
  result.add("gen.saturate_busy_pct", 100.0 * sat.generator_busy(), "%");
  result.add("gen.saturate_would_block_pct", 100.0 * sat.would_block_share(), "%");

  std::printf(
      "layers (ns per dp): decode %.1f + observe %.1f (predict %.1f) + reply "
      "encode %.1f = %.1f of %.1f service CPU (%.1f when saturated); "
      "unexplained %.1f (%.0f%%); %.2f windows/kdp\n",
      serve_costs.decode_ns_per_dp, serve_costs.observe_ns_per_dp, predict_per_dp,
      serve_costs.encode_prediction_ns * windows_per_dp, explained, untraced_cpu,
      sat.cpu_ns_per_dp(), untraced_cpu - explained,
      100.0 * (untraced_cpu - explained) / untraced_cpu, 1e3 * windows_per_dp);
  std::printf("spans recorded: %zu\n", tracer.size());
  return result;
}

}  // namespace perfbench
