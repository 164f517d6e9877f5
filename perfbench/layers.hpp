// The serve workloads' byte streams, and the per-layer replays of a traced
// run: each layer's public entry point driven alone over the same inputs
// the service saw, timed from outside.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "data/data_history.hpp"
#include "data/dataset.hpp"
#include "ml/model.hpp"

namespace perfbench {

/// The campaign as a load generator replays it: per run, the encoded
/// datapoint frames followed by the run's FailEvent frame.
struct EncodedCampaign {
  const data::DataHistory* history = nullptr;
  std::vector<std::vector<std::uint8_t>> runs;

  explicit EncodedCampaign(const data::DataHistory& history);
  [[nodiscard]] std::size_t num_runs() const { return runs.size(); }
  [[nodiscard]] std::size_t run_length(std::size_t run) const {
    return history->runs()[run].samples.size();
  }
};

/// Position in one session's frame sequence: the campaign's runs in
/// cyclic order from `start_run`, each run's datapoints then its
/// FailEvent.
class StreamCursor {
 public:
  StreamCursor(const EncodedCampaign& campaign, std::size_t start_run)
      : campaign_(&campaign), start_run_(start_run) {}

  /// Appends the frames of the next `count` datapoints, with the FailEvent
  /// of every run they complete.
  void append(std::vector<std::uint8_t>& out, std::uint64_t count);

  [[nodiscard]] std::size_t run() const {
    return (start_run_ + slot_) % campaign_->num_runs();
  }
  /// Runs started so far (the current one included).
  [[nodiscard]] std::size_t slot() const { return slot_; }
  /// Datapoints of the current run already appended.
  [[nodiscard]] std::size_t in_run() const { return in_run_; }
  [[nodiscard]] std::uint64_t datapoints() const { return datapoints_; }

 private:
  const EncodedCampaign* campaign_;
  std::size_t start_run_;
  std::size_t slot_ = 0;
  std::size_t in_run_ = 0;
  std::uint64_t datapoints_ = 0;
};

/// One session's stream as sent: where it started and how many
/// datapoints it carried before its Bye.
struct SentStream {
  std::size_t start_run = 0;
  std::uint64_t datapoints = 0;
};

/// Costs of the serve path's layers, each per unit of its own work.
struct ServeLayerCosts {
  double client_encode_ns_per_dp = 0.0;  ///< FMC side: encode_datapoint.
  double decode_ns_per_dp = 0.0;         ///< feed + next_view + detach.
  double observe_ns_per_dp = 0.0;        ///< OnlinePredictor::observe.
  double encode_prediction_ns = 0.0;     ///< encode_prediction per frame.
  double predictions_per_dp = 0.0;
  double bytes_per_dp = 0.0;             ///< Wire bytes per datapoint.
};

/// Replays the first `cap` datapoints of each sent stream through the
/// client encoder, the frame decoder (8 KiB chunks), an OnlinePredictor
/// serving `model` (reset on FailEvent, flush on Bye) and the prediction
/// encoder.
ServeLayerCosts replay_serve_layers(
    const EncodedCampaign& campaign,
    const std::shared_ptr<const ml::Regressor>& model,
    const std::vector<SentStream>& streams, std::uint64_t cap,
    Tracer& tracer);

/// Costs of the model-side layers on the campaign's own windows.
struct ModelLayerCosts {
  double window_features_ns_per_window = 0.0;  ///< compute_window_features.
  double predict_ns_per_window = 0.0;          ///< predict_row.
  double batch_predict_ns_per_row = 0.0;       ///< predict over the matrix.
};

/// Times compute_window_features over every 30 s window of `history`,
/// and predict_row / predict over `dataset`, each for at least
/// `min_seconds`.
ModelLayerCosts replay_model_layers(const data::DataHistory& history,
                                    const data::Dataset& dataset,
                                    const ml::Regressor& model,
                                    double min_seconds, Tracer& tracer);

}  // namespace perfbench
