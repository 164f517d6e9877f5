// Allocation-counting hook for the serve hot path: every global operator
// new in this binary bumps a counter, so a test can warm a component, take
// a snapshot, run N steady-state iterations and assert the count did not
// move. Combined with SessionArena's own do_allocate counters this proves
// the per-datapoint path — decode, window append, aggregate+score, encode
// — touches the heap zero times once buffers are warm.
//
// Counting is process-wide, so measured regions must not call gtest
// constructs that allocate (SCOPED_TRACE, failing EXPECTs with streamed
// messages); snapshots are compared after the loop instead.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "data/aggregation.hpp"
#include "data/datapoint.hpp"
#include "linalg/matrix.hpp"
#include "ml/cascade.hpp"
#include "ml/linear_regression.hpp"
#include "ml/registry.hpp"
#include "net/protocol.hpp"
#include "serve/arena.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

std::uint64_t global_news() {
  return g_news.load(std::memory_order_relaxed);
}

}  // namespace

// Replace the global allocation functions for this test binary. Only the
// unaligned forms are replaced — nothing on the measured paths uses
// over-aligned types, and the default aligned forms stay available.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace f2pm {
namespace {

/// A fitted LinearRegression over the full model-input row.
std::shared_ptr<ml::LinearRegression> fitted_linear(util::Rng& rng) {
  const std::size_t rows = 4 * data::kInputCount;
  linalg::Matrix x(rows, data::kInputCount);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < data::kInputCount; ++c) {
      x(r, c) = rng.uniform(-1.0, 1.0);
    }
    y[r] = rng.uniform(0.0, 1000.0);
  }
  auto model = std::make_shared<ml::LinearRegression>();
  model->fit(x, y);
  return model;
}

/// Streams `windows` aggregation windows through `predictor` (100 samples
/// per 1-second window, starting at *tgen) and returns the number of
/// predictions emitted. Allocation-free once the predictor is warm, so it
/// doubles as warm-up and as the measured region.
std::size_t stream_windows(core::OnlinePredictor& predictor, double* tgen,
                           std::size_t windows) {
  std::size_t emitted = 0;
  data::RawDatapoint sample;
  for (std::size_t f = 0; f < data::kFeatureCount; ++f) {
    sample.values[f] = 0.125 * static_cast<double>(f + 1);
  }
  for (std::size_t i = 0; i < windows * 100; ++i) {
    sample.tgen = *tgen;
    sample.values[0] = *tgen;  // Nonconstant so slopes are nonzero.
    if (predictor.observe(sample)) ++emitted;
    *tgen += 0.01;
  }
  return emitted;
}

TEST(SessionArena, CountsAllocationsAndRecyclesCapacity) {
  serve::SessionArena arena;
  std::pmr::vector<double> buffer(&arena);
  buffer.reserve(256);
  const std::uint64_t after_reserve = arena.allocations();
  EXPECT_GE(after_reserve, 1u);

  // clear() keeps capacity: refilling within it never reaches the arena.
  for (int round = 0; round < 10; ++round) {
    buffer.clear();
    for (int i = 0; i < 256; ++i) buffer.push_back(static_cast<double>(i));
  }
  EXPECT_EQ(arena.allocations(), after_reserve);
  EXPECT_GE(arena.bytes_requested(), 256 * sizeof(double));
}

TEST(HotPathAlloc, OnlinePredictorSteadyStateIsAllocationFree) {
  util::Rng rng(42);
  auto model = fitted_linear(rng);
  data::AggregationOptions aggregation;
  aggregation.window_seconds = 1.0;
  aggregation.min_samples_per_window = 2;

  serve::SessionArena arena;
  core::OnlinePredictor predictor(model, aggregation, {}, &arena);
  predictor.reserve_window(512);

  // Warm-up: grows nothing past reserve_window but resolves the obs
  // registry statics and the first histogram observation.
  double tgen = 0.0;
  ASSERT_GT(stream_windows(predictor, &tgen, 5), 0u);

  const std::uint64_t news_before = global_news();
  const std::uint64_t arena_before = arena.allocations();
  const std::size_t emitted = stream_windows(predictor, &tgen, 20);
  const std::uint64_t news_after = global_news();
  const std::uint64_t arena_after = arena.allocations();

  EXPECT_EQ(emitted, 20u);
  EXPECT_EQ(news_after, news_before)
      << "observe/aggregate/score allocated on the steady-state path";
  EXPECT_EQ(arena_after, arena_before)
      << "window buffer grew past its reserve_hot_buffers capacity";
}

TEST(HotPathAlloc, CascadeScreenPathSteadyStateIsAllocationFree) {
  util::Rng rng(43);
  ml::CascadeOptions options;
  options.horizon_seconds = 600.0;
  options.screen_columns = {0, 1, 2, 3};
  auto cascade = std::make_shared<ml::CascadeRegressor>(
      std::make_unique<ml::LinearRegression>(),
      std::make_unique<ml::LinearRegression>(), options);
  {
    const std::size_t rows = 4 * data::kInputCount;
    linalg::Matrix x(rows, data::kInputCount);
    std::vector<double> y(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < data::kInputCount; ++c) {
        x(r, c) = rng.uniform(-1.0, 1.0);
      }
      y[r] = rng.uniform(0.0, 2000.0);
    }
    cascade->fit(x, y);
  }

  serve::SessionArena arena;
  data::AggregationOptions aggregation;
  aggregation.window_seconds = 1.0;
  aggregation.min_samples_per_window = 2;
  core::OnlinePredictor predictor(cascade, aggregation, {}, &arena);
  predictor.reserve_window(512);

  // Warm-up also sizes the screen stage's thread_local gather scratch.
  double tgen = 0.0;
  ASSERT_GT(stream_windows(predictor, &tgen, 5), 0u);

  const std::uint64_t news_before = global_news();
  const std::uint64_t arena_before = arena.allocations();
  const std::size_t emitted = stream_windows(predictor, &tgen, 20);

  EXPECT_EQ(emitted, 20u);
  EXPECT_EQ(global_news(), news_before)
      << "cascade screen/promote path allocated per window";
  EXPECT_EQ(arena.allocations(), arena_before);
}

/// Fits registry model `name` on a random full-width design whose targets
/// (0..100 s) sit well inside a cascade's 600 s horizon, then runs warm
/// predict_row loops and returns the heap allocations they made.
std::uint64_t predict_row_allocations(const std::string& name,
                                      const util::Config& params,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t rows = 8 * data::kInputCount;
  linalg::Matrix x(rows, data::kInputCount);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < data::kInputCount; ++c) {
      x(r, c) = rng.uniform(-1.0, 1.0);
    }
    y[r] = 50.0 + 40.0 * x(r, 0) + 5.0 * x(r, 1) * x(r, 2);
  }
  const auto model = ml::make_model(name, params);
  model->fit(x, y);
  if (const auto* cascade =
          dynamic_cast<const ml::CascadeRegressor*>(model.get())) {
    EXPECT_TRUE(cascade->predict_row_traced(x.row(0)).promoted);
  }
  double sink = 0.0;
  for (std::size_t r = 0; r < rows; ++r) sink += model->predict_row(x.row(r));
  const std::uint64_t news_before = global_news();
  for (int pass = 0; pass < 20; ++pass) {
    for (std::size_t r = 0; r < rows; ++r) {
      sink += model->predict_row(x.row(r));
    }
  }
  const std::uint64_t news = global_news() - news_before;
  EXPECT_TRUE(std::isfinite(sink));
  return news;
}

TEST(HotPathAlloc, TreeModelPredictRowIsAllocationFree) {
  util::Config bagging;
  bagging.set("bagging.num_trees", "11");
  EXPECT_EQ(predict_row_allocations("gbdt", {}, 51), 0u) << "gbdt";
  EXPECT_EQ(predict_row_allocations("reptree", {}, 52), 0u) << "reptree";
  EXPECT_EQ(predict_row_allocations("bagging", bagging, 53), 0u)
      << "bagging";
}

TEST(HotPathAlloc, CascadeWithGbdtFullStageIsAllocationFree) {
  // Every target is inside the horizon, so every row is promoted to the
  // gbdt full stage.
  util::Config params;
  params.set("cascade.full", "gbdt");
  params.set("cascade.horizon_seconds", "600");
  EXPECT_EQ(predict_row_allocations("cascade", params, 54), 0u);
}

TEST(HotPathAlloc, FrameEncoderIntoWarmBufferIsAllocationFree) {
  net::Prediction prediction;
  prediction.window_end = 30.0;
  prediction.rttf = 1234.5;
  prediction.alarm = true;
  prediction.model_version = 7;

  std::vector<std::uint8_t> out;
  net::FrameEncoder::encode_prediction(out, prediction);  // Warm: sizes
  net::FrameEncoder::encode_datapoint(out, data::RawDatapoint{});  // + obs.

  const std::uint64_t news_before = global_news();
  for (int i = 0; i < 1000; ++i) {
    out.clear();  // Capacity retained: the encodes below just rewrite it.
    net::FrameEncoder::encode_prediction(out, prediction);
    net::FrameEncoder::encode_datapoint(out, data::RawDatapoint{});
  }
  EXPECT_EQ(global_news(), news_before)
      << "FrameEncoder allocated while encoding into a warm buffer";
}

TEST(HotPathAlloc, FrameDecoderSteadyStateIsAllocationFree) {
  std::vector<std::uint8_t> wire;
  data::RawDatapoint sample;
  sample.tgen = 1.5;
  for (std::size_t f = 0; f < data::kFeatureCount; ++f) {
    sample.values[f] = static_cast<double>(f);
  }
  net::FrameEncoder::encode_datapoint(wire, sample);

  net::FrameDecoder decoder;
  // Warm: one full feed/view cycle sizes the inbox buffer and resolves
  // the net metrics statics.
  decoder.feed(wire.data(), wire.size());
  ASSERT_TRUE(decoder.next_view().has_value());

  data::RawDatapoint scratch;
  const std::uint64_t news_before = global_news();
  for (int i = 0; i < 1000; ++i) {
    // The buffer was fully consumed, so feed() recycles it (clear keeps
    // capacity) and the insert fits without growing.
    decoder.feed(wire.data(), wire.size());
    auto view = decoder.next_view();
    if (!view) break;  // EXPECT below reports the miscount.
    view->datapoint(scratch);
  }
  EXPECT_EQ(global_news(), news_before)
      << "FrameDecoder feed/next_view steady state allocated";
  EXPECT_EQ(scratch.tgen, sample.tgen);
}

}  // namespace
}  // namespace f2pm
