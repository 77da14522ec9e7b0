// Deploying a batch-authored spec on the live path: train a windowed
// KitNET with the batch Engine, compile the same pipeline text with
// compile_streaming, and let the IngestRuntime's pipeline sink mode run it
// continuously over a looping replay source — grouping, tumbling windows,
// aggregates, normalization, and model scoring all evaluated incrementally,
// with per-epoch results arriving while the stream is still flowing. The
// batch engine stays the oracle: the streaming chain's epochs are the same
// rows a whole-table run would produce, bit for bit.
//
//   ./streaming_pipeline
#include <cstdio>
#include <string>
#include <utility>

#include "common/telemetry.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "core/stream_op.h"
#include "netio/parse.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace {

using namespace lumen;

core::PipelineSpec parse_spec(const std::string& body) {
  auto spec = core::PipelineSpec::parse("[" + body + "]");
  if (!spec.ok()) {
    std::fprintf(stderr, "spec parse: %s\n", spec.error().message.c_str());
    std::exit(1);
  }
  return std::move(spec).value();
}

/// The first `end` packets of `ds` as their own dataset (the grace region
/// the batch trainer sees).
trace::Dataset slice_prefix(const trace::Dataset& ds, size_t end) {
  trace::Dataset out;
  out.id = ds.id + "-train";
  out.label_granularity = ds.label_granularity;
  out.trace.link = ds.trace.link;
  for (size_t j = 0; j < end; ++j) {
    out.trace.raw.push_back(ds.trace.raw[j]);
    out.pkt_label.push_back(ds.label_at(j));
    out.pkt_attack.push_back(ds.attack_at(j));
  }
  netio::parse_trace(out.trace);
  return out;
}

/// Prints one line per completed epoch as the runtime's consumer hands
/// them over (serialized by the runtime, so no locking here).
class EpochPrinter : public core::EpochSink {
 public:
  void on_epoch(const core::EpochBatch& b, size_t) override {
    size_t alerts = 0;
    if (b.scored) {
      for (int p : b.predictions) alerts += p != 0;
    }
    total_rows_ += b.table.rows;
    total_alerts_ += alerts;
    ++epochs_;
    std::printf("  epoch %-4llu t+%-7.1f %3zu group-windows  %2zu alerts\n",
                static_cast<unsigned long long>(b.epoch), b.window_start,
                b.table.rows, alerts);
  }

  size_t epochs() const { return epochs_; }
  size_t total_rows() const { return total_rows_; }
  size_t total_alerts() const { return total_alerts_; }

 private:
  size_t epochs_ = 0, total_rows_ = 0, total_alerts_ = 0;
};

}  // namespace

int main() {
  std::printf("Generating the Kitsune Mirai stand-in capture (P1)...\n");
  const trace::Dataset ds = trace::make_dataset("P1", 0.5);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  const trace::Dataset train = slice_prefix(ds, grace);
  const double live_span =
      ds.trace.view.back().ts - ds.trace.view[grace].ts;
  const double window = live_span / 8.0;

  // One pipeline text. The batch run appends model+train to produce the
  // ModelValue; the deploy run appends predict and consumes it as a
  // binding — same front end both times.
  const std::string front = R"(
    {"func": "field_extract", "input": None, "output": "P",
     "param": ["srcIP", "packetLength"]},
    {"func": "filter", "input": ["P"], "output": "PF", "require": ["len"]},
    {"func": "groupby", "input": ["PF"], "output": "G", "flowid": ["srcmac"]},
    {"func": "time_slice", "input": ["G"], "output": "W", "window": )" +
                            std::to_string(window) + R"(, "align": "global"},
    {"func": "apply_aggregates", "input": ["W"], "output": "F"},
    {"func": "normalize", "input": ["F"], "output": "N", "kind": "minmax"},)";

  std::printf("Batch-training the windowed KitNET on a %zu-packet grace "
              "period...\n\n", grace);
  core::Engine::Options eopts;
  eopts.registry = nullptr;
  core::OpContext tctx;
  tctx.dataset = &train;
  auto trained = core::Engine(eopts).run(
      parse_spec(front + R"(
        {"func": "model", "input": None, "output": "M0",
         "model_type": "KitNET", "normalize": true},
        {"func": "train", "input": ["M0", "N"], "output": "Model"},)"),
      tctx);
  if (!trained.ok()) {
    std::fprintf(stderr, "train: %s\n", trained.error().message.c_str());
    return 1;
  }
  const core::ModelValue model =
      *trained.value().get<core::ModelValue>("Model");

  // Deploy: the ingestion runtime builds one compiled chain per consumer;
  // bindings carry the trained model into the chain's predict stage.
  const core::PipelineSpec deploy = parse_spec(
      front + R"({"func": "predict", "input": ["Model", "N"],
                  "output": "Preds"},)");
  telemetry::Registry registry;
  core::IngestRuntime::Options opts;  // one shard keeps epochs in order
  opts.registry = &registry;
  opts.instrument_prefix = "gateway.";
  EpochPrinter sink;
  core::IngestRuntime runtime(
      opts,
      [&](size_t) -> std::unique_ptr<core::StreamPipeline> {
        core::StreamingOptions sopts;
        sopts.bindings.emplace("Model", model);
        sopts.registry = &registry;
        auto chain = core::compile_streaming(deploy, std::move(sopts));
        if (!chain.ok()) {
          std::fprintf(stderr, "compile: %s\n",
                       chain.error().message.c_str());
          std::exit(1);
        }
        return std::move(chain).value();
      },
      &sink);

  // Loop the post-grace region three times so the stream outlives one
  // capture: group state is keyed by who is on the network, not by how
  // long the stream runs, so memory stays bounded across passes.
  const trace::Dataset live = [&] {
    trace::Dataset out;
    out.id = ds.id + "-live";
    out.label_granularity = ds.label_granularity;
    out.trace.link = ds.trace.link;
    for (size_t j = grace; j < ds.trace.raw.size(); ++j) {
      out.trace.raw.push_back(ds.trace.raw[j]);
      out.pkt_label.push_back(ds.label_at(j));
      out.pkt_attack.push_back(ds.attack_at(j));
    }
    netio::parse_trace(out.trace);
    return out;
  }();
  netio::TraceReplaySource inner(live.trace);
  netio::LoopOptions lo;
  lo.loops = 3;
  netio::LoopingSource source(inner, lo);

  std::printf("Streaming the live region x%zu through the compiled chain:\n",
              lo.loops);
  auto stats_r = runtime.run(source);
  if (!stats_r.ok()) {
    std::fprintf(stderr, "ingest: %s\n", stats_r.error().message.c_str());
    return 1;
  }
  // Accounting straight from the shared registry (IngestStats is a
  // compatibility façade over the same counters).
  const telemetry::Snapshot snap = registry.snapshot();

  std::printf(
      "\n%zu epochs, %zu group-window rows, %zu alerted rows over %llu "
      "streamed packets.\n",
      sink.epochs(), sink.total_rows(), sink.total_alerts(),
      static_cast<unsigned long long>(snap.counter_value("gateway.scored")));

  // The chain's own instruments sit next to the runtime's in the shared
  // registry — this is what a /metrics endpoint would serve mid-run.
  std::printf("\nPrometheus scrape excerpt:\n");
  telemetry::Snapshot scalars;
  scalars.counters = snap.counters;
  scalars.gauges = snap.gauges;
  std::fputs(scalars.to_prometheus().c_str(), stdout);
  return sink.epochs() > 0 && sink.total_rows() > 0 ? 0 : 1;
}
