// Compiled inference plans (ml/compiled.h) against their source models:
//  * f64 plans are BIT-identical to the reference scoring paths — same
//    kernels, same accumulation order — for every compilable model family;
//  * f32 / i8 KitNET plans stay within a measured divergence bound, and the
//    f32 plan reproduces the reference alert set exactly on the P1-P4
//    golden captures (the deployment contract docs/framework.md states);
//  * plans honor the micro-batch contract (batch-size invariance);
//  * a compiled plan hot-swaps through IngestRuntime::deploy mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/ingest.h"
#include "core/stream.h"
#include "ml/compiled.h"
#include "ml/forest.h"
#include "ml/gmm.h"
#include "ml/kernel.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "ml/tree.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace lumen {
namespace {

using core::OnlineKitsune;
using features::FeatureTable;
using ml::compiled::Precision;

/// Two Gaussian blobs in `dims` dimensions separated by `gap` stddevs.
FeatureTable blobs(size_t n_per_class, size_t dims, double gap,
                   uint64_t seed) {
  std::vector<std::string> names;
  for (size_t d = 0; d < dims; ++d) names.push_back("f" + std::to_string(d));
  FeatureTable t = FeatureTable::make(2 * n_per_class, names);
  Rng rng(seed);
  for (size_t i = 0; i < 2 * n_per_class; ++i) {
    const int label = i < n_per_class ? 0 : 1;
    for (size_t d = 0; d < dims; ++d) {
      t.at(i, d) = rng.normal(label == 0 ? 0.0 : gap, 1.0);
    }
    t.labels[i] = label;
    t.unit_id[i] = static_cast<int64_t>(i);
    t.unit_time[i] = static_cast<double>(i);
  }
  return t;
}

/// A detector trained on the benign prefix of one golden capture, plus the
/// live remainder to score.
struct TrainedKitsune {
  OnlineKitsune det;
  std::span<const netio::PacketView> live;
};

TrainedKitsune train_on(const trace::Dataset& ds) {
  const size_t grace = ds.trace.view.size() * 45 / 100;
  TrainedKitsune t;
  t.det.train(std::span<const netio::PacketView>(ds.trace.view.data(), grace));
  t.live = std::span<const netio::PacketView>(ds.trace.view.data() + grace,
                                              ds.trace.view.size() - grace);
  return t;
}

std::vector<double> score_live(OnlineKitsune det,
                               std::span<const netio::PacketView> live,
                               size_t chunk) {
  std::vector<double> scores(live.size(), 0.0);
  for (size_t lo = 0; lo < live.size(); lo += chunk) {
    const size_t n = std::min(chunk, live.size() - lo);
    det.score_packets(live.subspan(lo, n), scores.data() + lo);
  }
  return scores;
}

// ------------------------------------------------------------- KitNET f64

TEST(CompiledKitnet, F64PlanBitIdenticalToReferenceOnLiveStream) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.25);
  TrainedKitsune t = train_on(ds);

  OnlineKitsune compiled = t.det;
  auto r = compiled.compile(Precision::kF64);
  ASSERT_TRUE(r.ok()) << r.error().message;
  ASSERT_NE(compiled.compiled_plan(), nullptr);
  EXPECT_STREQ(compiled.compiled_plan()->kind(), "kitnet");
  EXPECT_EQ(compiled.compiled_plan()->precision(), Precision::kF64);
  EXPECT_EQ(compiled.compiled_plan()->dim(), t.det.extractor().dim());
  EXPECT_EQ(compiled.compiled_plan()->threshold(), t.det.threshold());
  EXPECT_GT(compiled.compiled_plan()->weight_bytes(), 0u);

  const std::vector<double> ref = score_live(t.det, t.live, 64);
  const std::vector<double> got = score_live(std::move(compiled), t.live, 64);
  ASSERT_EQ(ref.size(), got.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i], got[i]) << "packet " << i;  // bitwise, not merely near
  }
}

TEST(CompiledKitnet, F64PlanSinglePacketMatchesMicroBatched) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.25);
  TrainedKitsune t = train_on(ds);
  ASSERT_TRUE(t.det.compile(Precision::kF64).ok());

  OnlineKitsune one_by_one = t.det;
  std::vector<double> single(t.live.size(), 0.0);
  for (size_t i = 0; i < t.live.size(); ++i) {
    single[i] = one_by_one.score_packet(t.live[i]);
  }
  const std::vector<double> batched = score_live(t.det, t.live, 64);
  const std::vector<double> ragged = score_live(t.det, t.live, 7);
  for (size_t i = 0; i < single.size(); ++i) {
    ASSERT_EQ(single[i], batched[i]) << "packet " << i;
    ASSERT_EQ(single[i], ragged[i]) << "packet " << i;
  }
}

// ------------------------------------------------- KitNET f32/i8 divergence

/// Max relative divergence of `got` against reference `ref`, guarding tiny
/// denominators with the reference score scale.
double max_rel_divergence(const std::vector<double>& ref,
                          const std::vector<double>& got) {
  double max_rel = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    const double denom = std::max(std::fabs(ref[i]), 1e-6);
    max_rel = std::max(max_rel, std::fabs(got[i] - ref[i]) / denom);
  }
  return max_rel;
}

TEST(CompiledKitnet, F32BoundedDivergenceAndAlertIdentityOnGoldens) {
  for (const char* name : {"P1", "P2", "P3", "P4"}) {
    const trace::Dataset ds = trace::make_dataset(name, 0.25);
    TrainedKitsune t = train_on(ds);
    OnlineKitsune f32 = t.det;
    ASSERT_TRUE(f32.compile(Precision::kF32).ok());
    EXPECT_EQ(f32.compiled_plan()->precision(), Precision::kF32);

    const std::vector<double> ref = score_live(t.det, t.live, 64);
    const std::vector<double> got = score_live(std::move(f32), t.live, 64);
    // Measured on the goldens: max relative divergence stays below ~2e-4
    // (f32 rounding through two AE layers); the gate leaves headroom but
    // still catches a broken kernel outright. Documented in
    // docs/framework.md and gated again on the bench side.
    EXPECT_LT(max_rel_divergence(ref, got), 1e-3) << name;
    // Deployment contract: the f32 plan's alert set is IDENTICAL to the
    // reference path's on the goldens.
    const double thr = t.det.threshold();
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i] > thr, got[i] > thr)
          << name << " packet " << i << " ref " << ref[i] << " f32 " << got[i];
    }
  }
}

TEST(CompiledKitnet, I8BoundedDivergenceOnGoldens) {
  for (const char* name : {"P1", "P2"}) {
    const trace::Dataset ds = trace::make_dataset(name, 0.25);
    TrainedKitsune t = train_on(ds);
    OnlineKitsune i8 = t.det;
    ASSERT_TRUE(i8.compile(Precision::kI8).ok());
    EXPECT_EQ(i8.compiled_plan()->precision(), Precision::kI8);
    // The int8 arena is much smaller than the f64 one (8 bytes -> 1 per
    // weight; norm/bias/scale stay f32).
    OnlineKitsune f64 = t.det;
    ASSERT_TRUE(f64.compile(Precision::kF64).ok());
    EXPECT_LT(i8.compiled_plan()->weight_bytes(),
              f64.compiled_plan()->weight_bytes());

    const std::vector<double> ref = score_live(t.det, t.live, 64);
    const std::vector<double> got = score_live(std::move(i8), t.live, 64);
    // Quantization error through two int8 layers; bound measured on the
    // goldens and documented. Alert identity is NOT contractual for i8 —
    // near-threshold packets may flip — so gate agreement away from the
    // threshold instead: disagreements must sit within the quantization
    // band around it.
    EXPECT_LT(max_rel_divergence(ref, got), 0.35) << name;
    const double thr = t.det.threshold();
    size_t flips = 0;
    for (size_t i = 0; i < ref.size(); ++i) {
      if ((ref[i] > thr) != (got[i] > thr)) {
        ++flips;
        EXPECT_LT(std::fabs(ref[i] - thr) / std::max(thr, 1e-6), 0.35)
            << name << " packet " << i;
      }
    }
    EXPECT_LT(flips, std::max<size_t>(1, ref.size() / 20)) << name;
  }
}

// ------------------------------------------------------------ table models

struct CompileCase {
  std::string name;
  ml::ModelPtr model;
  const char* kind;
  bool predict_identical;  // plan predict == model predict (same tie rule)
};

std::vector<CompileCase> table_cases() {
  std::vector<CompileCase> cases;
  cases.push_back({"forest", std::make_shared<ml::RandomForest>(), "forest",
                   /*predict_identical=*/false});
  cases.push_back({"tree", std::make_shared<ml::DecisionTree>(), "tree",
                   /*predict_identical=*/false});
  cases.push_back({"gmm", std::make_shared<ml::Gmm>(), "gmm",
                   /*predict_identical=*/true});
  cases.push_back({"ocsvm", std::make_shared<ml::OneClassSvm>(), "ocsvm",
                   /*predict_identical=*/true});
  cases.push_back({"linear_ocsvm", std::make_shared<ml::LinearOneClassSvm>(),
                   "linear_ocsvm", /*predict_identical=*/true});
  cases.push_back({"linear_svm", std::make_shared<ml::LinearSvm>(), "linear",
                   /*predict_identical=*/false});
  cases.push_back({"logreg", std::make_shared<ml::LogisticRegression>(),
                   "linear", /*predict_identical=*/false});
  cases.push_back({"knn", std::make_shared<ml::Knn>(), "knn",
                   /*predict_identical=*/false});
  return cases;
}

TEST(CompiledTableModels, ScoresBitIdenticalToReference) {
  const FeatureTable train = blobs(150, 6, 3.0, 915);
  const FeatureTable test = blobs(90, 6, 3.0, 916);
  for (auto& c : table_cases()) {
    c.model->fit(train);
    auto plan = ml::compiled::compile(*c.model);
    ASSERT_TRUE(plan.ok()) << c.name << ": " << plan.error().message;
    EXPECT_STREQ(plan.value()->kind(), c.kind) << c.name;
    EXPECT_EQ(plan.value()->precision(), Precision::kF64) << c.name;
    EXPECT_EQ(plan.value()->supervised(), c.model->is_supervised()) << c.name;

    const ml::ModelPtr wrapped = ml::compiled::wrap(plan.value(), c.name);
    const std::vector<double> ref = c.model->score(test);
    const std::vector<double> got = wrapped->score(test);
    ASSERT_EQ(ref.size(), got.size()) << c.name;
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i], got[i]) << c.name << " row " << i;  // bitwise
    }
    if (c.predict_identical) {
      EXPECT_EQ(c.model->predict(test), wrapped->predict(test)) << c.name;
    }
  }
}

// A tree plan's dim() is the highest split feature + 1, which can be
// narrower than the training table (here: trailing constant columns no
// split can use). wrap() must treat dim() as a minimum row width and score
// the wider table through ldx, not silently reject it.
TEST(CompiledTableModels, ForestScoresTableWiderThanPlanDim) {
  FeatureTable train = blobs(150, 4, 3.0, 917);
  FeatureTable test = blobs(90, 4, 3.0, 918);
  for (FeatureTable* t : {&train, &test}) {
    FeatureTable wide = FeatureTable::make(
        t->rows, {"f0", "f1", "f2", "f3", "pad0", "pad1"});
    for (size_t i = 0; i < t->rows; ++i) {
      for (size_t c = 0; c < t->cols; ++c) wide.at(i, c) = t->at(i, c);
      wide.at(i, 4) = 1.0;  // constant -> never a split candidate
      wide.at(i, 5) = -2.5;
    }
    wide.labels = t->labels;
    *t = std::move(wide);
  }
  ml::RandomForest forest;
  forest.fit(train);
  auto plan = ml::compiled::compile(forest);
  ASSERT_TRUE(plan.ok()) << plan.error().message;
  ASSERT_LE(plan.value()->dim(), size_t{4});
  const ml::ModelPtr wrapped = ml::compiled::wrap(plan.value(), "forest");
  const std::vector<double> ref = forest.score(test);
  const std::vector<double> got = wrapped->score(test);
  ASSERT_EQ(ref.size(), got.size());
  bool any_nonzero = false;
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i], got[i]) << "row " << i;
    any_nonzero = any_nonzero || got[i] != 0.0;
  }
  EXPECT_TRUE(any_nonzero);  // zeros would mean the plan rejected the table
}

TEST(CompiledTableModels, PlanScoreRowsIsBatchSizeInvariant) {
  const FeatureTable train = blobs(120, 5, 3.0, 412);
  const FeatureTable test = blobs(70, 5, 3.0, 413);
  for (auto& c : table_cases()) {
    c.model->fit(train);
    auto plan = ml::compiled::compile(*c.model);
    ASSERT_TRUE(plan.ok()) << c.name;
    // The ocsvm plan inherits the reference's sq_dist_batch semantics: the
    // kernel switches between the direct per-row path and the GEMM
    // expansion at kSqDistBatchCrossover rows, so — exactly like the
    // reference OneClassSvm::score — results across different chunkings
    // agree to tight tolerance, not bitwise (dense_test pins the same
    // bound for the kernel itself). Every other plan is bitwise invariant.
    const bool bitwise = c.name != "ocsvm";
    ml::compiled::Scratch scratch;
    std::vector<double> whole(test.rows, 0.0);
    plan.value()->score_rows(test.data.data(), test.rows, test.cols,
                             whole.data(), scratch);
    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{64}}) {
      std::vector<double> chunked(test.rows, 0.0);
      for (size_t lo = 0; lo < test.rows; lo += chunk) {
        const size_t m = std::min(chunk, test.rows - lo);
        plan.value()->score_rows(test.data.data() + lo * test.cols, m,
                                 test.cols, chunked.data() + lo, scratch);
      }
      for (size_t i = 0; i < whole.size(); ++i) {
        if (bitwise) {
          ASSERT_EQ(whole[i], chunked[i])
              << c.name << " chunk " << chunk << " row " << i;
        } else {
          ASSERT_NEAR(whole[i], chunked[i], 1e-9)
              << c.name << " chunk " << chunk << " row " << i;
        }
      }
    }
  }
}

TEST(CompiledPlan, UnfittedModelsRefuseToCompile) {
  EXPECT_FALSE(ml::compiled::compile(ml::RandomForest()).ok());
  EXPECT_FALSE(ml::compiled::compile(ml::Gmm()).ok());
  EXPECT_FALSE(ml::compiled::compile(ml::OneClassSvm()).ok());
  EXPECT_FALSE(ml::compiled::compile(ml::LinearSvm()).ok());
  EXPECT_FALSE(ml::compiled::compile(ml::Knn()).ok());
  OnlineKitsune untrained;
  EXPECT_FALSE(untrained.compile().ok());
}

// ----------------------------------------------------------- hot swap

TEST(CompiledPlan, DeploysThroughModelSlotMidRun) {
  // Paced replay of P1 with a reference-scoring consumer; 60 ms in, deploy
  // a factory handing out the SAME detector compiled to an f64 plan. The
  // swap must land without disturbing the accounting invariants (every
  // packet scored exactly once, sink log == alert counter), proving a
  // compiled plan rides ModelSlot into a running consumer like any scorer.
  // (Alert-set equality with an unswapped run is NOT asserted: a swapped-in
  // detector copy restarts from post-training extractor state, which is the
  // documented hot-swap semantic for stateful scorers.)
  const trace::Dataset ds = trace::make_dataset("P1", 0.25);
  TrainedKitsune t = train_on(ds);
  OnlineKitsune compiled = t.det;
  ASSERT_TRUE(compiled.compile(Precision::kF64).ok());

  netio::ReplayOptions replay;
  replay.pace = true;  // pin wall clock so the deploy lands mid-stream
  replay.speed = 50.0;
  netio::TraceReplaySource src(ds.trace, replay);
  telemetry::Registry reg;
  core::IngestRuntime::Options opts;
  opts.registry = &reg;
  core::CollectingSink sink;
  core::IngestRuntime rt(
      opts,
      [&t](size_t) { return std::make_unique<core::KitsuneScorer>(t.det); },
      &sink);
  std::atomic<bool> ok{false};
  std::thread runner([&] {
    auto r = rt.run(src);
    ok.store(r.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  rt.deploy([&compiled](size_t) {
    return std::make_unique<core::KitsuneScorer>(compiled);
  });
  runner.join();
  ASSERT_TRUE(ok.load());

  const core::IngestStats s = rt.stats();
  EXPECT_EQ(s.scored + s.parse_skipped, s.enqueued);  // kBlock: lossless
  EXPECT_EQ(s.scored + s.parse_skipped,
            static_cast<uint64_t>(ds.trace.view.size()));
  EXPECT_EQ(static_cast<uint64_t>(sink.alerts().size()), s.alerted);
  EXPECT_EQ(reg.counter("ingest.swaps_applied").value(), 1u);
}

}  // namespace
}  // namespace lumen
