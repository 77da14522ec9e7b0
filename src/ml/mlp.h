// Feed-forward neural nets trained by SGD:
//  * Mlp         — binary classifier, ReLU hidden layers + sigmoid output.
//  * AutoEncoderCore — one-hidden-layer autoencoder with online 0-1 input
//    normalization (the building block Kitsune stacks into KitNET).
//  * AutoEncoderDetector — Model adapter: train on benign rows, score by
//    reconstruction RMSE, threshold at a benign quantile.
//
// All the forward/backward math routes through the dense-kernel library
// (ml/dense.h): training runs minibatch GEMMs over the contiguous row-major
// weights, and the score(FeatureTable) paths process dense::kScoreBlock-row
// blocks instead of row-at-a-time. The pre-PR row-at-a-time scorers are
// kept as *_perrow reference paths for the equivalence tests and the
// batched-vs-per-row benchmark gate.
#pragma once

#include "ml/dense.h"
#include "ml/model.h"

namespace lumen::ml {

struct MlpConfig {
  std::vector<size_t> hidden = {32, 16};
  double lr = 0.02;
  size_t epochs = 30;
  size_t batch = 32;  // minibatch size for the GEMM-based SGD
  uint64_t seed = 43;
};

class Mlp : public Model {
 public:
  explicit Mlp(MlpConfig cfg = {}) : cfg_(cfg) {}

  void fit(const FeatureTable& X) override;
  std::vector<double> score(const FeatureTable& X) const override;
  std::vector<int> predict(const FeatureTable& X) const override;
  std::string name() const override { return "MLP"; }
  bool is_supervised() const override { return true; }

  /// Reusable buffers for allocation-free single-row scoring.
  struct ScoreScratch {
    std::vector<double> a;  // ping
    std::vector<double> b;  // pong
  };

  /// Score one feature vector without touching a table (streaming path);
  /// the scratch overload never allocates in steady state.
  double score_row(std::span<const double> x) const;
  double score_row(std::span<const double> x, ScoreScratch& scratch) const;

  /// Pre-PR reference: row-at-a-time scalar forward with per-row activation
  /// allocations. Kept for the batched-vs-per-row equivalence tests and the
  /// BENCH_ml baseline; not a production path.
  std::vector<double> score_perrow(const FeatureTable& X) const;

  /// Buffers for the fused micro-batch path (score_rows).
  struct RowsScratch {
    std::vector<double> z;  // m x in standardized inputs
    std::vector<double> a;  // ping (padded layer activations)
    std::vector<double> b;  // pong
  };

  /// Fused micro-batch scoring over the packed layer weights (see
  /// dense::PackedDense): out[i] = score of row i of the m x cols row-major
  /// block x (row stride ldx). Activations sweep per row, so results are
  /// bit-identical no matter how rows are grouped into batches. fit() packs
  /// the layers; an unfitted model scores zeros.
  void score_rows(const double* x, size_t m, size_t ldx, double* out,
                  RowsScratch& scratch) const;

 private:
  struct Layer {
    size_t in = 0, out = 0;
    std::vector<double> w;  // out x in
    std::vector<double> b;  // out
  };

  /// Pack every layer's weights for score_rows; called at the end of fit.
  void seal();

  double forward(std::span<const double> x, std::vector<std::vector<double>>* acts) const;
  void fit_standardizer(const FeatureTable& X);
  std::vector<double> standardized(std::span<const double> x) const;
  /// Standardize rows [lo, hi) of X into z (row-major, X.cols stride).
  void standardize_block(const FeatureTable& X, size_t lo, size_t hi,
                         double* z) const;
  /// One minibatch SGD step over rows[lo, hi) of the shuffled order.
  void train_batch(const FeatureTable& X, const std::vector<size_t>& order,
                   size_t lo, size_t hi, double lr, double w_pos,
                   double w_neg, std::vector<std::vector<double>>& acts,
                   std::vector<double>& delta, std::vector<double>& delta_prev);

  MlpConfig cfg_;
  std::vector<Layer> layers_;
  std::vector<dense::PackedDense> packed_;  // one per layer, set by seal()
  std::vector<double> mean_, inv_sd_;
};

/// Single-hidden-layer autoencoder with sigmoid activations and online
/// min-max input normalization, trained per-sample (Kitsune-style).
class AutoEncoderCore {
 public:
  /// hidden_ratio: hidden size = max(1, ceil(ratio * dim)).
  AutoEncoderCore(size_t dim, double hidden_ratio, double lr, uint64_t seed);

  /// Reusable buffers for allocation-free scoring; one scratch may be
  /// shared across cores of different dimensions (buffers are resized).
  struct ScoreScratch {
    std::vector<double> z;  // normalized input
    std::vector<double> h;  // hidden activations
  };

  /// Buffers for blocked batch scoring (score_batch).
  struct BatchScratch {
    std::vector<double> z;    // m x dim normalized inputs
    std::vector<double> h;    // m x hidden
    std::vector<double> y;    // m x dim reconstructions
    std::vector<double> inv;  // dim reciprocal ranges (unsealed cores only)
  };

  /// Buffers for the fused micro-batch path (score_rows). Like ScoreScratch,
  /// one scratch may be shared across cores of different dimensions.
  struct RowsScratch {
    std::vector<double> z;    // m x dim normalized inputs
    std::vector<double> h;    // m x padded hidden activations
    std::vector<double> y;    // m x padded reconstructions
    ScoreScratch row;         // unsealed fallback
  };

  /// One SGD step on x; returns the reconstruction RMSE *before* the update.
  double train_sample(std::span<const double> x);

  /// Reconstruction RMSE without updating weights.
  double score_sample(std::span<const double> x) const;

  /// Same, but reusing caller-owned buffers (the per-packet hot path).
  double score_sample(std::span<const double> x, ScoreScratch& scratch) const;

  /// Batched scoring: out[i] = reconstruction RMSE of row i of the m x dim
  /// row-major block x (row stride ldx). Forward pass runs as two GEMMs
  /// plus fused sigmoid sweeps over the whole block.
  void score_batch(const double* x, size_t m, size_t ldx, double* out,
                   BatchScratch& scratch) const;

  /// Pack the current weights into the PackedDense layout used by
  /// score_rows, and cache the reciprocal normalization ranges that
  /// score_rows and score_batch scale by. Called once when training
  /// finishes (the owning fit()); any later train_sample invalidates the
  /// seal. Packing is explicit — not lazy — so the const score paths stay
  /// safe to call concurrently.
  void seal();
  bool sealed() const { return sealed_; }

  /// Fused micro-batch scoring for the online hot path: out[i] =
  /// reconstruction RMSE of row i of the m x dim block x (row stride ldx).
  /// Runs encode/decode over the packed panels with per-row activation
  /// sweeps, so row i's score is bit-identical no matter how the stream is
  /// chopped into micro-batches (see the PackedDense contract). Falls back
  /// to a score_sample loop when not sealed.
  void score_rows(const double* x, size_t m, size_t ldx, double* out,
                  RowsScratch& scratch) const;

  size_t dim() const { return dim_; }
  size_t hidden() const { return hidden_; }

  /// Read-only view of the fitted parameters for the model compiler
  /// (ml/compiled.*): raw layer weights plus the normalization ranges.
  struct ParamsView {
    size_t dim = 0, hidden = 0;
    const double* w1 = nullptr;  // hidden x dim
    const double* b1 = nullptr;  // hidden
    const double* w2 = nullptr;  // dim x hidden
    const double* b2 = nullptr;  // dim
    const double* norm_min = nullptr;  // dim
    const double* norm_max = nullptr;  // dim
  };
  ParamsView params_view() const {
    return {dim_,       hidden_,    w1_.data(),       b1_.data(),
            w2_.data(), b2_.data(), norm_min_.data(), norm_max_.data()};
  }

 private:
  std::vector<double> normalize(std::span<const double> x) const;
  void normalize_into(std::span<const double> x, std::vector<double>& z) const;
  void update_norm(std::span<const double> x);
  /// inv[c] = 1 / (max - min) of column c, or 0 for a degenerate range.
  void fill_norm_inv(std::vector<double>& inv) const;
  /// z = the m x dim block x (row stride ldx) scaled to [0, 1] by inv.
  void normalize_block(const double* x, size_t m, size_t ldx,
                       const double* inv, std::vector<double>& z) const;

  size_t dim_;
  size_t hidden_;
  double lr_;
  std::vector<double> w1_, b1_;  // hidden x dim, hidden
  std::vector<double> w2_, b2_;  // dim x hidden, dim
  dense::PackedDense enc_, dec_;  // packed w1/w2 panels (valid iff sealed_)
  bool sealed_ = false;
  std::vector<double> norm_min_, norm_max_;
  std::vector<double> norm_inv_;  // fill_norm_inv at seal() (valid iff sealed_)
  bool norm_init_ = false;
  // Reused train_sample buffers (z, h, y, dy, dh, dvec); copying a core
  // copies them harmlessly.
  std::vector<double> tz_, th_, ty_, tdy_, tdh_, tdv_;
};

struct AutoEncoderConfig {
  double hidden_ratio = 0.5;
  double lr = 0.1;
  size_t epochs = 4;
  double quantile = 0.97;
  uint64_t seed = 47;
};

class AutoEncoderDetector : public Model {
 public:
  explicit AutoEncoderDetector(AutoEncoderConfig cfg = {}) : cfg_(cfg) {}

  void fit(const FeatureTable& X) override;
  std::vector<double> score(const FeatureTable& X) const override;
  std::vector<int> predict(const FeatureTable& X) const override;
  std::string name() const override { return "AutoEncoder"; }
  bool is_supervised() const override { return false; }

  double threshold() const { return threshold_; }

  /// The fitted core (null before fit) — for the model compiler.
  const AutoEncoderCore* core() const { return ae_.get(); }

  /// Pre-PR reference path (row-at-a-time score_sample loop).
  std::vector<double> score_perrow(const FeatureTable& X) const;

 private:
  AutoEncoderConfig cfg_;
  std::unique_ptr<AutoEncoderCore> ae_;
  double threshold_ = 0.0;
};

}  // namespace lumen::ml
