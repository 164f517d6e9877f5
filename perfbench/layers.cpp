#include "layers.hpp"

#include <cmath>
#include <cstring>
#include <optional>

#include "core/online.hpp"
#include "data/aggregation.hpp"
#include "net/protocol.hpp"

namespace perfbench {

namespace {

/// Datapoints per generator write: 64 frames of 128 bytes, 8 KiB.
constexpr std::uint64_t kChunkDatapoints = 64;

double ns_per(double seconds, double count) {
  return count > 0.0 ? seconds * 1e9 / count : 0.0;
}

/// Calls `body(sample, run_ended)` for the first `count` datapoints of a
/// session stream, in send order.
template <class Body>
void for_each_datapoint(const data::DataHistory& history, std::size_t start_run,
                        std::uint64_t count, Body&& body) {
  const auto& runs = history.runs();
  std::uint64_t sent = 0;
  for (std::size_t slot = 0; sent < count; ++slot) {
    const auto& samples = runs[(start_run + slot) % runs.size()].samples;
    for (std::size_t i = 0; i < samples.size() && sent < count; ++i, ++sent) {
      body(samples[i], i + 1 == samples.size());
    }
  }
}

}  // namespace

EncodedCampaign::EncodedCampaign(const data::DataHistory& h) : history(&h) {
  for (const data::Run& run : h.runs()) {
    std::vector<std::uint8_t> bytes;
    for (const data::RawDatapoint& sample : run.samples) {
      net::FrameEncoder::encode_datapoint(bytes, sample);
    }
    net::FrameEncoder::encode_fail_event(bytes, run.fail_time);
    runs.push_back(std::move(bytes));
  }
}

void StreamCursor::append(std::vector<std::uint8_t>& out, std::uint64_t count) {
  constexpr std::size_t kFrame =
      net::kFrameHeaderBytes + net::kDatapointPayloadBytes;
  while (count > 0) {
    const std::size_t length = campaign_->run_length(run());
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(count, length - in_run_));
    const bool completes = in_run_ + take == length;
    const std::vector<std::uint8_t>& bytes = campaign_->runs[run()];
    // A run's FailEvent sits right after its last datapoint frame.
    const std::size_t from = in_run_ * kFrame;
    const std::size_t to = completes ? bytes.size() : from + take * kFrame;
    out.insert(out.end(), bytes.begin() + static_cast<std::ptrdiff_t>(from),
               bytes.begin() + static_cast<std::ptrdiff_t>(to));
    in_run_ += take;
    datapoints_ += take;
    count -= take;
    if (completes) {
      ++slot_;
      in_run_ = 0;
    }
  }
}

ServeLayerCosts replay_serve_layers(
    const EncodedCampaign& campaign,
    const std::shared_ptr<const ml::Regressor>& model,
    const std::vector<SentStream>& streams, std::uint64_t cap, Tracer& tracer) {
  ServeLayerCosts costs;
  double datapoints = 0.0;
  double bytes = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double observe_s = 0.0;
  double predictions = 0.0;
  std::vector<net::Prediction> replies;

  for (const SentStream& stream : streams) {
    const std::uint64_t count = std::min(stream.datapoints, cap);
    datapoints += static_cast<double>(count);

    {  // FMC side: one 8 KiB batch at a time, as the generator writes.
      ScopedSpan span(tracer, "net.client_encode");
      std::vector<std::uint8_t> batch;
      batch.reserve(2 * kChunkDatapoints * 128);
      std::uint64_t in_batch = 0;
      const Clock::time_point start = Clock::now();
      for_each_datapoint(*campaign.history, stream.start_run, count,
                         [&](const data::RawDatapoint& sample, bool) {
                           net::FrameEncoder::encode_datapoint(batch, sample);
                           if (++in_batch == kChunkDatapoints) {
                             batch.clear();
                             in_batch = 0;
                           }
                         });
      encode_s += seconds_between(start, Clock::now());
    }

    {  // Service side: the exact byte stream, fed in 8 KiB chunks.
      ScopedSpan span(tracer, "net.decode");
      StreamCursor cursor(campaign, stream.start_run);
      net::FrameDecoder decoder;
      std::vector<std::uint8_t> chunk;
      data::RawDatapoint point;
      std::uint64_t frames = 0;
      while (cursor.datapoints() < count) {
        chunk.clear();
        cursor.append(chunk, std::min(kChunkDatapoints,
                                      count - cursor.datapoints()));
        bytes += static_cast<double>(chunk.size());
        const Clock::time_point start = Clock::now();
        decoder.feed(chunk.data(), chunk.size());
        while (auto view = decoder.next_view()) {
          if (view->type() == net::FrameType::kDatapoint) view->datapoint(point);
          ++frames;
        }
        decode_s += seconds_between(start, Clock::now());
      }
      if (frames < count) throw std::runtime_error("decode replay lost frames");
    }

    {  // Aggregation and scoring: reset on FailEvent, flush on Bye.
      ScopedSpan span(tracer, "core.observe");
      core::OnlinePredictor predictor(model, aggregation_options());
      replies.clear();
      const Clock::time_point start = Clock::now();
      for_each_datapoint(*campaign.history, stream.start_run, count,
                         [&](const data::RawDatapoint& sample, bool run_ended) {
                           if (auto p = predictor.observe(sample)) {
                             replies.push_back({p->window_end, p->rttf, false, 1});
                           }
                           if (run_ended) predictor.reset();
                         });
      if (auto p = predictor.flush()) {
        replies.push_back({p->window_end, p->rttf, false, 1});
      }
      observe_s += seconds_between(start, Clock::now());
      predictions += static_cast<double>(replies.size());
    }
  }

  {  // Reply encoding, one 8 KiB buffer reused as the shard reuses its own.
    ScopedSpan span(tracer, "net.encode_prediction");
    std::vector<std::uint8_t> out;
    out.reserve(16384);
    double encoded = 0.0;
    const Clock::time_point start = Clock::now();
    do {
      for (const net::Prediction& reply : replies) {
        net::FrameEncoder::encode_prediction(out, reply);
        if (out.size() >= 8192) out.clear();
      }
      encoded += static_cast<double>(replies.size());
    } while (encoded < 1e6 && !replies.empty());
    costs.encode_prediction_ns =
        ns_per(seconds_between(start, Clock::now()), encoded);
  }

  costs.client_encode_ns_per_dp = ns_per(encode_s, datapoints);
  costs.decode_ns_per_dp = ns_per(decode_s, datapoints);
  costs.observe_ns_per_dp = ns_per(observe_s, datapoints);
  costs.predictions_per_dp = datapoints > 0.0 ? predictions / datapoints : 0.0;
  costs.bytes_per_dp = datapoints > 0.0 ? bytes / datapoints : 0.0;
  return costs;
}

ModelLayerCosts replay_model_layers(const data::DataHistory& history,
                                    const data::Dataset& dataset,
                                    const ml::Regressor& model,
                                    double min_seconds, Tracer& tracer) {
  ModelLayerCosts costs;
  const double window = aggregation_options().window_seconds;

  {
    ScopedSpan span(tracer, "data.window_features");
    // Contiguous [begin, end) sample ranges of every window with >= 2
    // samples, and the sample before each window (the boundary gap).
    struct Range {
      const data::RawDatapoint* begin;
      std::size_t count;
      const double* boundary;
    };
    std::vector<Range> ranges;
    for (const data::Run& run : history.runs()) {
      const auto& s = run.samples;
      std::size_t begin = 0;
      while (begin < s.size()) {
        const double id = std::floor(s[begin].tgen / window);
        std::size_t end = begin + 1;
        while (end < s.size() && std::floor(s[end].tgen / window) == id) ++end;
        if (end - begin >= 2) {
          ranges.push_back({&s[begin], end - begin,
                            begin > 0 ? &s[begin - 1].tgen : nullptr});
        }
        begin = end;
      }
    }
    data::AggregatedDatapoint point;
    double windows = 0.0;
    double sink = 0.0;
    const Clock::time_point start = Clock::now();
    do {
      for (const Range& r : ranges) {
        data::compute_window_features(r.begin, r.count, r.boundary, point);
        sink += point.intergen_mean;
      }
      windows += static_cast<double>(ranges.size());
    } while (seconds_between(start, Clock::now()) < min_seconds &&
             !ranges.empty());
    costs.window_features_ns_per_window =
        ns_per(seconds_between(start, Clock::now()), windows);
    if (std::isnan(sink)) throw std::runtime_error("NaN window features");
  }

  {
    ScopedSpan span(tracer, "ml.predict_row");
    double rows = 0.0;
    double sink = 0.0;
    const Clock::time_point start = Clock::now();
    do {
      for (std::size_t r = 0; r < dataset.num_rows(); ++r) {
        sink += model.predict_row(dataset.x.row(r));
      }
      rows += static_cast<double>(dataset.num_rows());
    } while (seconds_between(start, Clock::now()) < min_seconds);
    costs.predict_ns_per_window =
        ns_per(seconds_between(start, Clock::now()), rows);
    if (std::isnan(sink)) throw std::runtime_error("NaN prediction");
  }

  {
    ScopedSpan span(tracer, "ml.batch_predict");
    double rows = 0.0;
    double sink = 0.0;
    const Clock::time_point start = Clock::now();
    do {
      sink += model.predict(dataset.x).back();
      rows += static_cast<double>(dataset.num_rows());
    } while (seconds_between(start, Clock::now()) < min_seconds);
    costs.batch_predict_ns_per_row =
        ns_per(seconds_between(start, Clock::now()), rows);
    if (std::isnan(sink)) throw std::runtime_error("NaN prediction");
  }
  return costs;
}

}  // namespace perfbench
