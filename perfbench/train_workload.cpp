// The train_pipeline workload: the modeler's batch job. core::run_pipeline
// on the campaign history with the paper's six models plus gbdt, Lasso
// feature selection on, default options, repeated for --seconds.
//
// A traced run repeats run_pipeline under a span, requires its scorecards
// to equal the untraced ones bit for bit, and takes the per-model fit and
// validation seconds from run_pipeline's own scorecards. The two phases
// the scorecards do not time, aggregation and Lasso feature selection, are
// timed alone on the same inputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "bench.hpp"
#include "core/feature_selection.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"

namespace perfbench {

namespace {

// Set-ups before measuring; each repetition adds one more (see run_train).
constexpr int kSetups = 3;
constexpr int kMinRepetitions = 2;
const std::vector<std::string> kModels = {"linear", "m5p",  "reptree", "lasso",
                                          "svm",    "svm2", "gbdt"};

core::PipelineOptions pipeline_options() {
  core::PipelineOptions options;
  options.aggregation = aggregation_options();
  options.models = kModels;
  return options;
}

/// Scorecards equal bit for bit, timings aside.
bool same_outcome(const core::ModelOutcome& a, const core::ModelOutcome& b) {
  const ml::EvaluationReport& x = a.report;
  const ml::EvaluationReport& y = b.report;
  if (a.display_name != b.display_name || x.num_features != y.num_features ||
      x.train_rows != y.train_rows || x.validation_rows != y.validation_rows ||
      a.predicted.size() != b.predicted.size()) {
    return false;
  }
  for (const auto& [p, q] : {std::pair{x.mae, y.mae}, {x.rae, y.rae},
                             {x.max_ae, y.max_ae}, {x.soft_mae, y.soft_mae},
                             {x.soft_mae_threshold, y.soft_mae_threshold},
                             {x.rmse, y.rmse}, {x.r2, y.r2}}) {
    if (!same_bits(p, q)) return false;
  }
  for (std::size_t i = 0; i < a.predicted.size(); ++i) {
    if (!same_bits(a.predicted[i], b.predicted[i])) return false;
  }
  return true;
}

/// A usable scorecard: finite errors, one prediction per validation row.
bool sound(const core::ModelOutcome& o) {
  return std::isfinite(o.report.mae) && std::isfinite(o.report.soft_mae) &&
         std::isfinite(o.report.rmse) && o.report.validation_rows > 0 &&
         o.predicted.size() == o.report.validation_rows;
}

std::vector<core::ModelOutcome> scorecards(const core::PipelineResult& r) {
  std::vector<core::ModelOutcome> all = r.using_all_features;
  all.insert(all.end(), r.using_selected_features.begin(),
             r.using_selected_features.end());
  return all;
}

/// Checks one repetition's scorecards against the reference; returns the
/// number that fail. The first repetition becomes the reference.
std::uint64_t check(const std::vector<core::ModelOutcome>& got,
                    std::vector<core::ModelOutcome>& reference, Result& result,
                    const char* what) {
  std::uint64_t failed = 0;
  if (reference.empty()) reference = got;
  if (got.size() != reference.size()) {
    result.reject(std::string(what) + ": scorecard count differs");
    return std::max(got.size(), reference.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!sound(got[i]) || !same_outcome(got[i], reference[i])) ++failed;
  }
  if (failed > 0) {
    result.reject(std::string(what) + ": " + std::to_string(failed) +
                  " scorecards unsound or not bit-identical");
  }
  return failed;
}

struct Timing {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> peak_rss_mb;  ///< Of each repetition alone.
};

/// The registry model an outcome came from ("lasso-lambda-10" -> "lasso").
std::string family(const std::string& display_name) {
  return display_name.rfind("lasso", 0) == 0 ? "lasso" : display_name;
}

/// Adds one run_pipeline's fit and validation seconds to `layers`, per
/// model family (Lasso sums its lambda grid; validation sums both feature
/// sets).
void add_model_seconds(const core::PipelineResult& run,
                       std::map<std::string, double>& layers) {
  for (const auto& [outcomes, fit_key] :
       {std::pair{&run.using_all_features, "ml.fit_s."},
        std::pair{&run.using_selected_features, "ml.fit_selected_s."}}) {
    for (const core::ModelOutcome& o : *outcomes) {
      layers[fit_key + family(o.display_name)] += o.report.training_seconds;
      layers["ml.validate_s." + family(o.display_name)] += o.report.validation_seconds;
    }
  }
}

}  // namespace

Result run_train(const Options& options) {
  Result result;
  Tracer tracer;

  std::vector<double> setup_s;
  data::DataHistory history;
  for (int i = 0; i < kSetups; ++i) {
    ScopedSpan span(tracer, "setup");
    const Clock::time_point start = Clock::now();
    history = make_campaign(options.seed);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  const double samples = static_cast<double>(history.num_samples());
  std::printf("campaign: seed %llu, %zu runs, %zu datapoints; setup %.3f s "
              "(median of the first %d)\n",
              static_cast<unsigned long long>(options.seed), history.num_runs(),
              history.num_samples(), median(setup_s), kSetups);

  // Untraced: run_pipeline, repeated for the measuring time.
  const core::PipelineOptions pipeline = pipeline_options();
  std::vector<core::ModelOutcome> reference;
  Timing untraced;
  const Clock::time_point measure = Clock::now();
  // Peak RSS is taken per repetition and reported as the median: how many
  // parallel-loop buffers are alive at once varies with thread timing, so
  // one repetition's peak varies by a fifth from the next.
  const bool per_repetition_rss = reset_peak_rss();
  do {
    if (per_repetition_rss) reset_peak_rss();
    const double cpu = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    const core::PipelineResult run = core::run_pipeline(history, pipeline);
    untraced.wall_s.push_back(seconds_between(start, Clock::now()));
    untraced.cpu_s.push_back(process_cpu_seconds() - cpu);
    untraced.peak_rss_mb.push_back(peak_rss_mb());
    const std::vector<core::ModelOutcome> cards = scorecards(run);
    result.attempted += cards.size();
    result.failed += check(cards, reference, result, "run_pipeline repetition");
    // One more set-up per repetition: on a shared host, single-threaded
    // code runs at speeds a third apart in streaks of seconds, so set-ups
    // made only at the start sample one streak.
    const Clock::time_point setup_start = Clock::now();
    if (make_campaign(options.seed).num_samples() != history.num_samples()) {
      result.reject("the campaign differs between set-ups");
    }
    setup_s.push_back(seconds_between(setup_start, Clock::now()));
  } while (seconds_between(measure, Clock::now()) < options.seconds ||
           untraced.wall_s.size() < kMinRepetitions);
  double best_smae = std::numeric_limits<double>::infinity();
  for (const core::ModelOutcome& o : reference) {
    best_smae = std::min(best_smae, o.report.soft_mae);
  }
  const double pipeline_s = median(untraced.wall_s);
  std::printf(
      "untraced: %zu pipelines, median %.3f s, slowest %.3f s (%.0f dp/s, "
      "%.1f ns CPU/dp); %zu scorecards each; best S-MAE %.2f s\n",
      untraced.wall_s.size(), pipeline_s, quantile(untraced.wall_s, 1.0),
      samples / pipeline_s, median(untraced.cpu_s) * 1e9 / samples,
      reference.size(), best_smae);

  if (!options.trace) {
    result.add("capacity_dps", samples / pipeline_s, "dp/s");
    result.add("cpu_ns_per_dp", median(untraced.cpu_s) * 1e9 / samples, "ns");
    result.add("p50_ms", 1e3 * quantile(untraced.wall_s, 0.5), "ms");
    result.add("pipeline_s", pipeline_s, "s");
    result.add("peak_rss_mb", median(untraced.peak_rss_mb), "MB");
    result.add("setup_s", median(setup_s), "s");
    return result;
  }

  // Traced: run_pipeline again, as many times, under a span; then the
  // phases its scorecards do not time, each alone on the same inputs.
  Timing traced;
  std::map<std::string, std::vector<double>> layer_runs;
  const std::vector<double> lambdas = core::paper_lambda_grid();
  for (std::size_t rep = 0; rep < untraced.wall_s.size(); ++rep) {
    std::map<std::string, double> layers;
    const double cpu = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    const int span = tracer.begin("core.run_pipeline");
    const core::PipelineResult run = core::run_pipeline(history, pipeline);
    tracer.end(span);
    traced.wall_s.push_back(seconds_between(start, Clock::now()));
    traced.cpu_s.push_back(process_cpu_seconds() - cpu);
    const std::vector<core::ModelOutcome> cards = scorecards(run);
    result.attempted += cards.size();
    result.failed += check(cards, reference, result, "traced run_pipeline");
    add_model_seconds(run, layers);

    Clock::time_point t0 = Clock::now();
    std::size_t rows = 0;
    {
      ScopedSpan aggregate_span(tracer, "data.aggregate");
      rows = data::build_dataset(data::aggregate(history, pipeline.aggregation)).num_rows();
    }
    layers["data.aggregate_s"] = seconds_between(t0, Clock::now());
    t0 = Clock::now();
    std::vector<std::size_t> selected;
    {
      ScopedSpan select_span(tracer, "core.select_features");
      selected = core::select_features(run.train, lambdas)
                     .at_lambda(pipeline.selection_lambda)
                     .selected;
    }
    layers["core.select_features_s"] = seconds_between(t0, Clock::now());
    ++result.attempted;
    if (rows != run.dataset.num_rows() || selected != run.selected_columns) {
      ++result.failed;
      result.reject("aggregation or feature selection timed alone differs from run_pipeline's");
    }
    for (const auto& [name, seconds] : layers) layer_runs[name].push_back(seconds);
  }

  double explained = 0.0;
  for (const auto& [name, runs] : layer_runs) {
    const double value = median(runs);
    result.add(name, value, "s");
    explained += value;
  }
  result.add("ml.best_smae_s", best_smae, "s");
  // Against the traced repetitions: the layer times come from those.
  result.add("pipeline.unexplained_s", median(traced.wall_s) - explained, "s");
  const auto both = [&](const std::string& name, double u, double t,
                        const std::string& unit) {
    result.add("untraced." + name, u, unit);
    result.add("traced." + name, t, unit);
    result.add("trace_overhead." + name, t - u, unit);
  };
  both("capacity_dps", samples / pipeline_s, samples / median(traced.wall_s), "dp/s");
  both("cpu_ns_per_dp", median(untraced.cpu_s) * 1e9 / samples,
       median(traced.cpu_s) * 1e9 / samples, "ns");
  both("p50_ms", 1e3 * quantile(untraced.wall_s, 0.5),
       1e3 * quantile(traced.wall_s, 0.5), "ms");
  both("p99_ms", 1e3 * quantile(untraced.wall_s, 0.99),
       1e3 * quantile(traced.wall_s, 0.99), "ms");
  std::printf("traced: %zu pipelines, median %.3f s; layers explain %.3f s "
              "of %.3f s; %zu spans\n",
              traced.wall_s.size(), median(traced.wall_s), explained, median(traced.wall_s),
              tracer.size());
  return result;
}

}  // namespace perfbench
