// GBDT training bench: (1) Soft-MAE on the canonical leak campaign for
// the gradient-boosted ensemble vs the single-tree and bagged baselines —
// the headline is the boosted model beating the single REP-Tree's S-MAE —
// (2) fit-time scaling of the leaf-wise histogram booster against
// REP-Tree (histogram engine), M5P, and bagged trees on synthetic data, and
// (3) predict cost of the compiled forest: predict_row and batched predict
// ns/row for the default 100-round gbdt and a histogram REP-Tree.
//
// Emits BENCH_gbdt_training.json next to the binary: per-model S-MAE on
// the campaign, per-config fit timings (min over reps), per-config predict
// ns/row (min over reps), and the headline S-MAE delta (reptree - gbdt,
// positive = GBDT wins). `--smoke` shrinks the synthetic sizes and the
// boosting schedule so CI exercises the full code path in seconds.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "ml/ensemble.hpp"
#include "ml/gbdt.hpp"
#include "ml/m5p.hpp"
#include "ml/metrics.hpp"
#include "ml/reptree.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace f2pm;

constexpr std::size_t kFeatures = 16;

/// Same piecewise response as the tree-scaling bench: realistic depth,
/// enough ties that histogram binning does real work.
void make_data(std::size_t n, util::Rng& rng, linalg::Matrix& x,
               std::vector<double>& y) {
  x = linalg::Matrix(n, kFeatures);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < kFeatures; ++c) {
      x(i, c) = c % 3 == 0 ? static_cast<double>(rng.uniform_int(0, 15))
                           : rng.uniform(-2.0, 2.0);
    }
    y[i] = std::sin(x(i, 1)) + 0.3 * x(i, 0) +
           (x(i, 2) > 0.5 ? 2.0 : -1.0) + 0.2 * x(i, 4) * x(i, 5) +
           rng.normal(0.0, 0.05);
  }
}

struct Result {
  std::string section;
  std::string impl;
  std::size_t n = 0;
  double seconds = 0.0;
  /// S-MAE for campaign rows, MAE for scaling rows, ns/row for predict rows.
  double metric = 0.0;
};

std::vector<Result> g_results;

void record(const Result& r) {
  std::printf("%-26s%-20s%-10zu%-14.4f%-10.5f\n", r.section.c_str(),
              r.impl.c_str(), r.n, r.seconds, r.metric);
  g_results.push_back(r);
}

template <typename Fn>
double timed_min(std::size_t reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < reps; ++i) {
    best = std::min(best, util::timed(fn));
  }
  return best;
}

/// The boosting schedule used for the campaign headline. Small leaves +
/// slow shrinkage + feature subsampling: the RTTF surface is dominated by
/// a few monotone resource counters, so many shallow corrective trees
/// beat one deep variance-greedy tree.
util::Config campaign_gbdt_config() {
  util::Config params;
  params.set("gbdt.n_rounds", "300");
  params.set("gbdt.learning_rate", "0.05");
  params.set("gbdt.max_leaves", "16");
  params.set("gbdt.min_instances", "5");
  params.set("gbdt.row_subsample", "0.8");
  params.set("gbdt.feature_subsample", "0.8");
  params.set("gbdt.histogram_bins", "64");
  params.set("gbdt.seed", "2015");
  return params;
}

/// Fits `name` on the campaign train split, scores the validation split,
/// and records S-MAE at the study threshold.
double campaign_row(const std::string& name, const util::Config& params) {
  const auto& s = bench::study();
  auto model = ml::make_model(name, params);
  const ml::EvaluationReport report =
      ml::evaluate_model(*model, s.train.x, s.train.y, s.validation.x,
                         s.validation.y, s.soft_threshold);
  Result r;
  r.section = "campaign_smae";
  r.impl = name;
  r.n = s.train.num_rows();
  r.seconds = report.training_seconds;
  r.metric = report.soft_mae;
  record(r);
  return report.soft_mae;
}

template <typename Model>
void scaling_row(const char* impl, Model& model, std::size_t reps,
                 const linalg::Matrix& x, const std::vector<double>& y,
                 const linalg::Matrix& x_val,
                 const std::vector<double>& y_val) {
  Result r;
  r.section = "fit_scaling";
  r.impl = impl;
  r.n = x.rows();
  r.seconds = timed_min(reps, [&] { model.fit(x, y); });
  r.metric = ml::mean_absolute_error(model.predict(x_val), y_val);
  record(r);
}

/// Times predict_row over every row of `x` and one batched predict(x),
/// each the fastest of `reps` passes, and records ns/row for both.
void predict_rows(const char* impl, const ml::Regressor& model,
                  std::size_t reps, const linalg::Matrix& x) {
  double sink = 0.0;
  const double row_s = timed_min(reps, [&] {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      sink += model.predict_row(x.row(r));
    }
  });
  const double batch_s =
      timed_min(reps, [&] { sink += model.predict(x).back(); });
  benchmark::DoNotOptimize(sink);
  const double rows = static_cast<double>(x.rows());
  record({"predict_row_ns", impl, x.rows(), row_s, row_s * 1e9 / rows});
  record({"predict_batch_ns", impl, x.rows(), batch_s, batch_s * 1e9 / rows});
}

void write_json(double gbdt_smae, double reptree_smae) {
  std::FILE* out = std::fopen("BENCH_gbdt_training.json", "w");
  if (out == nullptr) return;
  std::fprintf(out, "{\n  \"bench\": \"gbdt_training\",\n");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < g_results.size(); ++i) {
    const Result& r = g_results[i];
    std::fprintf(out,
                 "    {\"section\": \"%s\", \"impl\": \"%s\", \"n\": %zu, "
                 "\"seconds\": %.6f, \"metric\": %.6f}%s\n",
                 r.section.c_str(), r.impl.c_str(), r.n, r.seconds, r.metric,
                 i + 1 < g_results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"gbdt_smae\": %.6f,\n", gbdt_smae);
  std::fprintf(out, "  \"reptree_smae\": %.6f,\n", reptree_smae);
  std::fprintf(out, "  \"smae_delta_vs_reptree\": %.6f,\n",
               reptree_smae - gbdt_smae);
  std::fprintf(out, "  \"hardware_threads\": %u\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "}\n");
  std::fclose(out);
}

void run_all(bool smoke) {
  bench::print_banner("GBDT on the histogram engine - S-MAE and fit scaling");
  std::printf("%-26s%-20s%-10s%-14s%-10s\n", "section", "impl", "n",
              "seconds", "smae/mae");
  std::printf("%s\n", std::string(80, '-').c_str());

  // Campaign S-MAE: the headline comparison. Baselines use the registry
  // defaults the other benches report.
  util::Config gbdt_params = campaign_gbdt_config();
  if (smoke) gbdt_params.set("gbdt.n_rounds", "40");
  const double gbdt_smae = campaign_row("gbdt", gbdt_params);
  const double reptree_smae = campaign_row("reptree", util::Config{});
  campaign_row("m5p", util::Config{});
  campaign_row("bagging", util::Config{});

  // Fit-time scaling on synthetic data, all tree learners at a matched
  // per-leaf floor; GBDT at two schedules to show round-count linearity.
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{500}
            : std::vector<std::size_t>{2000, 20000};
  const std::size_t reps = smoke ? 1 : 3;
  const std::size_t predict_reps = smoke ? 1 : 5;
  const std::size_t rounds_short = smoke ? 10 : 50;
  const std::size_t rounds_long = smoke ? 20 : 200;
  for (const std::size_t n : sizes) {
    util::Rng rng(4242);
    linalg::Matrix x;
    std::vector<double> y;
    make_data(n, rng, x, y);
    linalg::Matrix x_val;
    std::vector<double> y_val;
    make_data(500, rng, x_val, y_val);

    ml::RepTreeOptions tree_options;
    tree_options.split_mode = ml::SplitMode::kHistogram;
    tree_options.min_instances_per_leaf = 25;
    ml::RepTree reptree(tree_options);
    scaling_row("reptree_hist", reptree, reps, x, y, x_val, y_val);
    predict_rows("reptree_hist", reptree, predict_reps, x);

    ml::M5P m5p;
    scaling_row("m5p", m5p, reps, x, y, x_val, y_val);

    ml::BaggedTreesOptions bag_options;
    bag_options.num_trees = rounds_short;
    ml::BaggedTrees bagging(bag_options);
    scaling_row(("bagging_" + std::to_string(rounds_short)).c_str(), bagging,
                reps, x, y, x_val, y_val);

    for (const std::size_t rounds : {rounds_short, rounds_long}) {
      ml::GbdtOptions options;
      options.n_rounds = rounds;
      options.learning_rate = 0.1;
      options.max_leaves = 31;
      options.min_instances_per_leaf = 25;
      ml::GbdtRegressor gbdt(options);
      scaling_row(("gbdt_" + std::to_string(rounds)).c_str(), gbdt, reps, x,
                  y, x_val, y_val);
    }

    // The served configuration: registry-default gbdt (100 rounds, depth
    // 6, 31 leaves).
    ml::GbdtRegressor served;
    served.fit(x, y);
    predict_rows("gbdt_default", served, predict_reps, x);
  }

  std::printf("\ncampaign S-MAE: gbdt %.3fs vs reptree %.3fs (delta %+.3fs, "
              "positive = gbdt wins)\n\n",
              gbdt_smae, reptree_smae, reptree_smae - gbdt_smae);
  write_json(gbdt_smae, reptree_smae);
}

/// Microbench: one boosted fit-and-score on the campaign split, the unit
/// CI tracks for regressions in the histogram booster.
void BM_TrainAndScoreGbdt(benchmark::State& state) {
  const auto& s = bench::study();
  ml::GbdtOptions options;
  options.n_rounds = 40;
  options.max_leaves = 16;
  for (auto _ : state) {
    ml::GbdtRegressor model(options);
    const auto report =
        ml::evaluate_model(model, s.train.x, s.train.y, s.validation.x,
                           s.validation.y, s.soft_threshold);
    benchmark::DoNotOptimize(report.soft_mae);
  }
}
BENCHMARK(BM_TrainAndScoreGbdt)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  run_all(smoke);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
