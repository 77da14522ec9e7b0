// Streaming operator engine tests: compile_streaming must lower the same
// PipelineSpec the batch Engine runs, and — for the supported subset with
// time_slice align="global" — the per-epoch rows, scores, and alert sets a
// chain emits must be bit-identical to the batch run over the same packets
// (the batch engine is the oracle). Also covers lowering diagnostics for
// batch-only ops, reset determinism, the IngestRuntime pipeline sink mode,
// and bounded group state over a looping replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/ingest.h"
#include "core/stream_op.h"
#include "features/transform.h"
#include "netio/parse.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace lumen::core {
namespace {

using features::FeatureTable;

/// Copy packets [begin, end) of `ds` into a standalone dataset, remapping
/// the label arrays so label_at(j) in the slice equals label_at(begin + j)
/// in the original. The slice is re-parsed, so its views are self-contained
/// (view[j].index == j — nothing in these captures fails to parse twice).
trace::Dataset slice_dataset(const trace::Dataset& ds, size_t begin,
                             size_t end) {
  trace::Dataset out;
  out.id = ds.id + "-slice";
  out.standin = ds.standin;
  out.label_granularity = ds.label_granularity;
  out.trace.link = ds.trace.link;
  for (size_t j = begin; j < end; ++j) {
    out.trace.raw.push_back(ds.trace.raw[j]);
    out.pkt_label.push_back(ds.label_at(j));
    out.pkt_attack.push_back(ds.attack_at(j));
  }
  EXPECT_EQ(netio::parse_trace(out.trace), 0u);
  return out;
}

// The windowed feature pipeline both engines run: group by source MAC
// (meaningful on both the Ethernet and the 802.11 captures), tumbling
// globally-aligned windows, and an aggregate list that exercises
// every streaming-supported func family (series stats, distinct/entropy,
// and the unit-level count/rate/duration/bytes_rate).
constexpr const char* kAggList = R"([
      {"field": "len", "funcs": ["mean", "std", "min", "max", "sum",
                                 "distinct", "entropy"]},
      {"field": "iat", "funcs": ["mean", "std"]},
      {"funcs": ["count", "rate", "duration", "bytes_rate"]}])";

std::string windowed_prefix(double window) {
  return std::string(R"(
    {"func": "field_extract", "input": None, "output": "P",
     "param": ["srcIP", "packetLength"]},
    {"func": "filter", "input": ["P"], "output": "PF", "require": ["len"]},
    {"func": "groupby", "input": ["PF"], "output": "G", "flowid": ["srcmac"]},
    {"func": "time_slice", "input": ["G"], "output": "W", "window": )") +
         std::to_string(window) + R"(, "align": "global"},
    {"func": "apply_aggregates", "input": ["W"], "output": "F", "list": )" +
         kAggList + "},";
}

PipelineSpec parse_spec(const std::string& text) {
  auto spec = PipelineSpec::parse("[" + text + "]");
  EXPECT_TRUE(spec.ok()) << spec.error().message;
  return std::move(spec).value();
}

/// Batch-train a KitNET (with train-frozen normalization) on the windowed
/// features of `train` and return the trained ModelValue.
ModelValue train_windowed_model(const trace::Dataset& train, double window) {
  PipelineSpec spec = parse_spec(windowed_prefix(window) + R"(
    {"func": "model", "input": None, "output": "M0", "model_type": "KitNET",
     "normalize": true},
    {"func": "train", "input": ["M0", "F"], "output": "Model"},
  )");
  Engine::Options eopts;
  eopts.registry = nullptr;
  OpContext ctx;
  ctx.dataset = &train;
  auto report = Engine(eopts).run(spec, ctx);
  EXPECT_TRUE(report.ok()) << report.error().message;
  const ModelValue* mv = report.value().get<ModelValue>("Model");
  EXPECT_NE(mv, nullptr);
  return *mv;
}

double capture_span(const trace::Dataset& ds) {
  return ds.trace.view.empty()
             ? 0.0
             : ds.trace.view.back().ts - ds.trace.view.front().ts;
}

/// One collected streaming row: the raw aggregate values plus its score
/// and prediction (when the chain ends in predict).
struct StreamRow {
  std::vector<double> vals;
  double score = 0.0;
  int pred = 0;
  uint64_t epoch = 0;
};

/// Push every parsed packet of `ds` through `chain` and collect its rows
/// keyed by the emitted unit key ("<srcip>#w<k>").
std::map<std::string, StreamRow> run_chain(StreamPipeline& chain,
                                           const trace::Dataset& ds) {
  std::map<std::string, StreamRow> rows;
  chain.set_callback([&rows](EpochBatch&& b) {
    for (size_t r = 0; r < b.table.rows; ++r) {
      StreamRow row;
      row.vals.assign(b.table.row(r).begin(), b.table.row(r).end());
      if (b.scored) {
        row.score = b.scores[r];
        row.pred = b.predictions[r];
      }
      row.epoch = b.epoch;
      EXPECT_TRUE(rows.emplace(b.keys[r], std::move(row)).second)
          << "duplicate key " << b.keys[r];
    }
  });
  for (const auto& v : ds.trace.view) chain.push(v);
  chain.finish();
  return rows;
}

// The acceptance test: a group-by + time-slice + aggregate + model-scoring
// spec runs continuously through the streaming engine, and every per-epoch
// aggregate, score, and alert is bit-identical to the batch Engine's run
// over the same capture with the same seeded model.
TEST(StreamingGolden, MatchesBatchEngineBitForBitAcrossCaptures) {
  size_t total_alerts = 0;
  for (const char* id : {"P1", "P2", "P3", "P4"}) {
    SCOPED_TRACE(id);
    const trace::Dataset ds = trace::make_dataset(id, 0.2);
    const size_t grace = ds.trace.view.size() * 45 / 100;
    ASSERT_GT(grace, 100u);
    const trace::Dataset train = slice_dataset(ds, 0, grace);
    const trace::Dataset dep = slice_dataset(ds, grace, ds.trace.view.size());
    const double window = capture_span(dep) / 8.0;
    ASSERT_GT(window, 0.0);

    const ModelValue model = train_windowed_model(train, window);
    PipelineSpec deploy = parse_spec(windowed_prefix(window) + R"(
      {"func": "predict", "input": ["Model", "F"], "output": "Preds"},
    )");

    // Batch oracle: run the same spec with the trained model seeded in,
    // keeping the windowed grouping so rows can be matched by unit key.
    std::map<std::string, Value> seed;
    seed.emplace("Model", model);
    Engine::Options eopts;
    eopts.registry = nullptr;
    eopts.keep = {"W", "F"};
    OpContext ctx;
    ctx.dataset = &dep;
    auto report = Engine(eopts).run(deploy, ctx, &seed);
    ASSERT_TRUE(report.ok()) << report.error().message;
    const GroupedPackets* W = report.value().get<GroupedPackets>("W");
    const FeatureTable* F = report.value().get<FeatureTable>("F");
    const Predictions* P = report.value().get<Predictions>("Preds");
    ASSERT_NE(W, nullptr);
    ASSERT_NE(F, nullptr);
    ASSERT_NE(P, nullptr);
    ASSERT_EQ(W->groups.size(), F->rows);
    ASSERT_EQ(P->scores.size(), F->rows);

    // Streaming path over the identical packet sequence.
    StreamingOptions sopts;
    sopts.bindings.emplace("Model", model);
    auto chain = compile_streaming(deploy, std::move(sopts));
    ASSERT_TRUE(chain.ok()) << chain.error().message;
    const std::map<std::string, StreamRow> srows =
        run_chain(*chain.value(), dep);

    // Same unit population, same values, same scores, same alerts — all
    // compared with EXPECT_EQ on doubles (bit-identical, not merely close).
    ASSERT_EQ(srows.size(), F->rows);
    size_t batch_alerts = 0, stream_alerts = 0;
    for (size_t r = 0; r < F->rows; ++r) {
      const std::string& key = W->groups[r].key;
      const auto it = srows.find(key);
      ASSERT_NE(it, srows.end()) << "missing streaming row for " << key;
      ASSERT_EQ(it->second.vals.size(), F->cols);
      for (size_t c = 0; c < F->cols; ++c) {
        EXPECT_EQ(it->second.vals[c], F->at(r, c))
            << key << " col " << F->col_names[c];
      }
      EXPECT_EQ(it->second.score, P->scores[r]) << key;
      EXPECT_EQ(it->second.pred, P->y_pred[r]) << key;
      batch_alerts += P->y_pred[r] != 0 ? 1 : 0;
      stream_alerts += it->second.pred != 0 ? 1 : 0;
    }
    EXPECT_EQ(stream_alerts, batch_alerts);
    EXPECT_EQ(chain.value()->alerts(), stream_alerts);
    total_alerts += stream_alerts;

    // Non-vacuity: several epochs, several groups, every packet consumed.
    EXPECT_GE(chain.value()->epochs(), 3u);
    EXPECT_EQ(chain.value()->packets(), dep.trace.view.size());
    EXPECT_EQ(chain.value()->rows(), F->rows);
    EXPECT_EQ(chain.value()->late_packets(), 0u);
    std::set<std::string> base_keys;
    for (const auto& [key, row] : srows) {
      base_keys.insert(key.substr(0, key.find("#w")));
    }
    EXPECT_GT(base_keys.size(), 1u) << "grouping was vacuous";
  }
  // The detector must actually fire somewhere across the four captures.
  EXPECT_GT(total_alerts, 0u);
}

// normalize with the default mode="epoch" must equal fitting the batch
// normalize op on exactly that epoch's rows.
TEST(StreamingNormalize, EpochModeMatchesPerEpochBatchFit) {
  const trace::Dataset ds = trace::make_dataset("P2", 0.1);
  const double window = capture_span(ds) / 6.0;
  ASSERT_GT(window, 0.0);

  PipelineSpec raw_spec = parse_spec(windowed_prefix(window));
  PipelineSpec norm_spec = parse_spec(windowed_prefix(window) + R"(
    {"func": "normalize", "input": ["F"], "output": "N", "kind": "minmax"},
  )");

  auto raw_chain = compile_streaming(raw_spec);
  auto norm_chain = compile_streaming(norm_spec);
  ASSERT_TRUE(raw_chain.ok()) << raw_chain.error().message;
  ASSERT_TRUE(norm_chain.ok()) << norm_chain.error().message;

  std::vector<FeatureTable> raw_epochs, norm_epochs;
  raw_chain.value()->set_callback(
      [&](EpochBatch&& b) { raw_epochs.push_back(std::move(b.table)); });
  norm_chain.value()->set_callback(
      [&](EpochBatch&& b) { norm_epochs.push_back(std::move(b.table)); });
  for (const auto& v : ds.trace.view) {
    raw_chain.value()->push(v);
    norm_chain.value()->push(v);
  }
  raw_chain.value()->finish();
  norm_chain.value()->finish();

  ASSERT_GE(raw_epochs.size(), 3u);
  ASSERT_EQ(raw_epochs.size(), norm_epochs.size());
  for (size_t e = 0; e < raw_epochs.size(); ++e) {
    FeatureTable expect = raw_epochs[e];
    features::Normalizer norm(features::NormKind::kMinMax);
    norm.fit(expect);
    norm.apply(expect);
    ASSERT_EQ(norm_epochs[e].rows, expect.rows) << "epoch " << e;
    for (size_t r = 0; r < expect.rows; ++r) {
      for (size_t c = 0; c < expect.cols; ++c) {
        EXPECT_EQ(norm_epochs[e].at(r, c), expect.at(r, c))
            << "epoch " << e << " row " << r << " col " << c;
      }
    }
  }
}

// Per-packet chains (damped_stats -> predict) must match the batch run
// positionally, and the micro-batch size must never change a score.
TEST(StreamingPerPacket, DampedStatsChainMatchesBatchAndMicroBatchInvariant) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.1);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  const trace::Dataset train = slice_dataset(ds, 0, grace);
  const trace::Dataset dep = slice_dataset(ds, grace, ds.trace.view.size());

  PipelineSpec train_spec = parse_spec(R"(
    {"func": "field_extract", "input": None, "output": "P", "param": []},
    {"func": "damped_stats", "input": ["P"], "output": "F"},
    {"func": "model", "input": None, "output": "M0", "model_type": "KitNET",
     "normalize": true},
    {"func": "train", "input": ["M0", "F"], "output": "Model"},
  )");
  Engine::Options eopts;
  eopts.registry = nullptr;
  OpContext tctx;
  tctx.dataset = &train;
  auto trained = Engine(eopts).run(train_spec, tctx);
  ASSERT_TRUE(trained.ok()) << trained.error().message;
  const ModelValue* model = trained.value().get<ModelValue>("Model");
  ASSERT_NE(model, nullptr);

  PipelineSpec deploy = parse_spec(R"(
    {"func": "field_extract", "input": None, "output": "P", "param": []},
    {"func": "damped_stats", "input": ["P"], "output": "F"},
    {"func": "predict", "input": ["Model", "F"], "output": "Preds"},
  )");
  std::map<std::string, Value> seed;
  seed.emplace("Model", *model);
  OpContext dctx;
  dctx.dataset = &dep;
  auto report = Engine(eopts).run(deploy, dctx, &seed);
  ASSERT_TRUE(report.ok()) << report.error().message;
  const Predictions* P = report.value().get<Predictions>("Preds");
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(P->scores.size(), dep.trace.view.size());

  auto stream_scores = [&](size_t micro_batch) {
    StreamingOptions sopts;
    sopts.bindings.emplace("Model", *model);
    sopts.micro_batch = micro_batch;
    auto chain = compile_streaming(deploy, std::move(sopts));
    EXPECT_TRUE(chain.ok()) << chain.error().message;
    std::vector<std::pair<int64_t, double>> out;  // (capture index, score)
    chain.value()->set_callback([&out](EpochBatch&& b) {
      EXPECT_TRUE(b.scored);
      for (size_t r = 0; r < b.table.rows; ++r) {
        out.emplace_back(b.table.unit_id[r], b.scores[r]);
      }
    });
    for (const auto& v : dep.trace.view) chain.value()->push(v);
    chain.value()->finish();
    return out;
  };

  const auto big = stream_scores(64);
  ASSERT_EQ(big.size(), P->scores.size());
  for (size_t i = 0; i < big.size(); ++i) {
    EXPECT_EQ(big[i].first, static_cast<int64_t>(dep.trace.view[i].index));
    EXPECT_EQ(big[i].second, P->scores[i]) << "packet " << i;
  }
  // The micro-batch size is a pure throughput knob: bit-identical scores.
  EXPECT_EQ(stream_scores(7), big);
}

TEST(StreamingCompile, RejectsBatchOnlyOpsWithDiagnostics) {
  const auto compile_err = [](const std::string& body,
                              StreamingOptions opts = {}) {
    auto chain = compile_streaming(parse_spec(body), std::move(opts));
    EXPECT_FALSE(chain.ok());
    return chain.ok() ? std::string() : chain.error().message;
  };

  // Training belongs to the batch engine.
  EXPECT_NE(compile_err(R"(
    {"func": "field_extract", "input": None, "output": "P", "param": []},
    {"func": "damped_stats", "input": ["P"], "output": "F"},
    {"func": "model", "input": None, "output": "M0", "model_type": "KitNET"},
    {"func": "train", "input": ["M0", "F"], "output": "Model"},
  )").find("batch-only"), std::string::npos);

  // time_slice without align="global" has no shared epoch boundary.
  EXPECT_NE(compile_err(R"(
    {"func": "field_extract", "input": None, "output": "P", "param": []},
    {"func": "groupby", "input": ["P"], "output": "G", "flowid": ["srcip"]},
    {"func": "time_slice", "input": ["G"], "output": "W", "window": 5},
    {"func": "apply_aggregates", "input": ["W"], "output": "F"},
  )").find("align"), std::string::npos);

  // median needs the whole window resident.
  EXPECT_NE(compile_err(R"(
    {"func": "field_extract", "input": None, "output": "P", "param": []},
    {"func": "groupby", "input": ["P"], "output": "G", "flowid": ["srcip"]},
    {"func": "time_slice", "input": ["G"], "output": "W", "window": 5,
     "align": "global"},
    {"func": "apply_aggregates", "input": ["W"], "output": "F",
     "list": [{"field": "len", "func": "median"}]},
  )").find("median"), std::string::npos);

  // Arbitrary table surgery is not lowerable; the diagnostic lists the
  // supported subset.
  EXPECT_NE(compile_err(R"(
    {"func": "field_extract", "input": None, "output": "P", "param": []},
    {"func": "packet_features", "input": ["P"], "output": "F"},
    {"func": "one_hot", "input": ["F"], "output": "F2", "column": "proto"},
  )").find("supported ops"), std::string::npos);

  // predict without a seeded model fails the shared type check by name.
  EXPECT_NE(compile_err(R"(
    {"func": "field_extract", "input": None, "output": "P", "param": []},
    {"func": "damped_stats", "input": ["P"], "output": "F"},
    {"func": "predict", "input": ["Model", "F"], "output": "Preds"},
  )").find("Model"), std::string::npos);

  // A seeded binding that was never trained/constructed is caught too.
  StreamingOptions with_empty;
  with_empty.bindings.emplace("Model", ModelValue{});
  EXPECT_NE(compile_err(R"(
    {"func": "field_extract", "input": None, "output": "P", "param": []},
    {"func": "damped_stats", "input": ["P"], "output": "F"},
    {"func": "predict", "input": ["Model", "F"], "output": "Preds"},
  )", std::move(with_empty)).find("ModelValue"), std::string::npos);
}

// reset() must return a chain to its freshly-compiled state: replaying the
// same packets yields bit-identical epochs.
TEST(StreamingPipeline, ResetReplaysIdentically) {
  const trace::Dataset ds = trace::make_dataset("P3", 0.1);
  const double window = capture_span(ds) / 5.0;
  ASSERT_GT(window, 0.0);
  auto chain = compile_streaming(parse_spec(windowed_prefix(window)));
  ASSERT_TRUE(chain.ok()) << chain.error().message;

  const auto first = run_chain(*chain.value(), ds);
  const uint64_t first_epochs = chain.value()->epochs();
  ASSERT_FALSE(first.empty());

  chain.value()->reset();
  EXPECT_EQ(chain.value()->packets(), 0u);
  EXPECT_EQ(chain.value()->epochs(), 0u);
  const auto second = run_chain(*chain.value(), ds);
  EXPECT_EQ(chain.value()->epochs(), first_epochs);

  ASSERT_EQ(second.size(), first.size());
  for (const auto& [key, row] : first) {
    const auto it = second.find(key);
    ASSERT_NE(it, second.end()) << key;
    EXPECT_EQ(it->second.vals, row.vals) << key;
    EXPECT_EQ(it->second.epoch, row.epoch) << key;
  }
}

/// Epoch sink that flattens every emitted row (tests only).
class CollectingEpochSink : public EpochSink {
 public:
  void on_epoch(const EpochBatch& b, size_t consumer) override {
    for (size_t r = 0; r < b.table.rows; ++r) {
      keys.push_back(b.keys[r]);
      scores.push_back(b.scored ? b.scores[r] : 0.0);
      preds.push_back(b.scored ? b.predictions[r] : 0);
    }
    ++epochs;
    last_consumer = consumer;
  }

  std::vector<std::string> keys;
  std::vector<double> scores;
  std::vector<int> preds;
  size_t epochs = 0;
  size_t last_consumer = 0;
};

// The IngestRuntime pipeline sink mode must deliver through the live
// queue/consumer machinery exactly what a direct chain push produces, with
// the runtime stats and the chain's registry mirrors agreeing.
TEST(StreamingRuntime, PipelineModeMatchesDirectPush) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.1);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  const trace::Dataset train = slice_dataset(ds, 0, grace);
  const trace::Dataset dep = slice_dataset(ds, grace, ds.trace.view.size());
  const double window = capture_span(dep) / 6.0;
  ASSERT_GT(window, 0.0);

  const ModelValue model = train_windowed_model(train, window);
  PipelineSpec deploy = parse_spec(windowed_prefix(window) + R"(
    {"func": "predict", "input": ["Model", "F"], "output": "Preds"},
  )");

  // Reference: direct push through one chain.
  StreamingOptions ref_opts;
  ref_opts.bindings.emplace("Model", model);
  auto ref = compile_streaming(deploy, std::move(ref_opts));
  ASSERT_TRUE(ref.ok()) << ref.error().message;
  const auto expect = run_chain(*ref.value(), dep);

  // Live path: replay the same capture through the ingestion runtime with
  // an instrumented chain (per-operator spans + chain counters).
  telemetry::Registry reg;
  IngestRuntime::Options opts;
  opts.registry = &reg;
  CollectingEpochSink sink;
  IngestRuntime rt(
      opts,
      [&](size_t) -> std::unique_ptr<StreamPipeline> {
        StreamingOptions sopts;
        sopts.bindings.emplace("Model", model);
        sopts.registry = &reg;
        auto chain = compile_streaming(deploy, std::move(sopts));
        EXPECT_TRUE(chain.ok()) << chain.error().message;
        return chain.ok() ? std::move(chain).value() : nullptr;
      },
      &sink);
  netio::TraceReplaySource src(dep.trace);
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok()) << stats.error().message;

  // Same rows, same scores, same alert rows.
  ASSERT_EQ(sink.keys.size(), expect.size());
  size_t alerted_rows = 0;
  for (size_t i = 0; i < sink.keys.size(); ++i) {
    const auto it = expect.find(sink.keys[i]);
    ASSERT_NE(it, expect.end()) << sink.keys[i];
    EXPECT_EQ(sink.scores[i], it->second.score) << sink.keys[i];
    EXPECT_EQ(sink.preds[i], it->second.pred) << sink.keys[i];
    alerted_rows += sink.preds[i] != 0 ? 1 : 0;
  }

  // Runtime accounting: scored counts packets fed to the chain, alerted
  // counts alerted rows.
  EXPECT_EQ(stats.value().enqueued, dep.trace.view.size());
  EXPECT_EQ(stats.value().scored, dep.trace.view.size());
  EXPECT_EQ(stats.value().parse_skipped, 0u);
  EXPECT_EQ(stats.value().alerted, alerted_rows);

  // The chain mirrored its counters and per-operator flush spans into the
  // shared registry.
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("stream.packets"), dep.trace.view.size());
  EXPECT_EQ(snap.counter_value("stream.epochs"), sink.epochs);
  EXPECT_EQ(snap.counter_value("stream.rows"), expect.size());
  EXPECT_EQ(snap.counter_value("stream.alerts"), alerted_rows);
  size_t agg_spans = 0, score_spans = 0;
  for (const telemetry::SpanRecord& s : snap.spans) {
    agg_spans += s.name == "stream.op.apply_aggregates" ? 1 : 0;
    score_spans += s.name == "stream.op.predict" ? 1 : 0;
  }
  EXPECT_EQ(agg_spans, sink.epochs);
  EXPECT_EQ(score_spans, sink.epochs);
}

// Soak: looping the capture must not grow the group directory — the chain's
// state is bounded by the traffic's group population, not stream length.
TEST(StreamingRuntime, LoopingReplayKeepsGroupPopulationBounded) {
  const trace::Dataset ds = trace::make_dataset("P2", 0.1);
  const double window = capture_span(ds) / 4.0;
  ASSERT_GT(window, 0.0);
  PipelineSpec spec = parse_spec(windowed_prefix(window));

  const auto run_loops = [&](size_t loops) {
    CollectingEpochSink sink;
    IngestRuntime::Options opts;
    opts.registry = nullptr;
    IngestRuntime rt(
        opts,
        [&](size_t) -> std::unique_ptr<StreamPipeline> {
          auto chain = compile_streaming(spec);
          EXPECT_TRUE(chain.ok()) << chain.error().message;
          return chain.ok() ? std::move(chain).value() : nullptr;
        },
        &sink);
    netio::TraceReplaySource inner(ds.trace);
    netio::LoopOptions lo;
    lo.loops = loops;
    netio::LoopingSource src(inner, lo);
    auto stats = rt.run(src);
    EXPECT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().scored, loops * ds.trace.view.size());
    std::set<std::string> base_keys;
    for (const std::string& k : sink.keys) {
      base_keys.insert(k.substr(0, k.find("#w")));
    }
    return std::make_pair(base_keys, sink.epochs);
  };

  const auto [one_pass_keys, one_pass_epochs] = run_loops(1);
  const auto [three_pass_keys, three_pass_epochs] = run_loops(3);
  ASSERT_GT(one_pass_keys.size(), 1u);
  // Three passes see the same traffic population: the directory (and with
  // it the chain's persistent state) stops growing after the first pass...
  EXPECT_EQ(three_pass_keys, one_pass_keys);
  // ...while the window clock keeps advancing (the stream really ran 3x).
  EXPECT_GE(three_pass_epochs, 2 * one_pass_epochs);
}

}  // namespace
}  // namespace lumen::core
