// A fully-connected layer with a fused activation: y = act(W x + b).
//
// Gradients accumulate into gradW/gradB until zeroGrad() or an optimizer step
// consumes them; backward() returns dL/dx so layers can be chained by the
// owning Mlp.
#pragma once

#include <cstdint>
#include <random>

#include "linalg/matrix.hpp"
#include "nn/activation.hpp"

namespace trdse::nn {

/// One fully-connected layer (y = act(W x + b)) with per-sample and batched
/// paths.
class DenseLayer {
 public:
  /// Construct with zeroed weights; call initWeights() before use.
  DenseLayer(std::size_t inDim, std::size_t outDim, Activation act);

  /// Xavier/Glorot uniform for tanh/identity, He for relu.
  void initWeights(std::mt19937_64& rng);

  /// Forward pass; caches input/pre-activation/output for backward().
  linalg::Vector forward(const linalg::Vector& x);

  /// Forward without touching caches (safe for concurrent inference reuse
  /// of the math, though the object itself is not thread-safe).
  linalg::Vector predict(const linalg::Vector& x) const;

  /// Given dL/dy, accumulate dL/dW and dL/db, return dL/dx.
  linalg::Vector backward(const linalg::Vector& gradOut);

  // ---- Batched path (batch × dim row-major matrices) ----
  //
  // One GEMM per layer instead of one matVec per sample; the cache matrices
  // persist across calls, so the steady-state training/planning loop does not
  // allocate. Results are bitwise identical to the per-sample methods.

  /// Batched forward; caches the batch for backwardBatch(). Returns the
  /// activation matrix (valid until the next batched call on this layer).
  const linalg::Matrix& forwardBatch(const linalg::Matrix& x);

  /// Batched stateless inference: out = act(x · W^T + b). `packBuf` receives
  /// the packed transpose of the weights; pass a caller-owned scratch matrix
  /// to keep repeated calls allocation-free.
  void predictBatch(const linalg::Matrix& x, linalg::Matrix& out,
                    linalg::Matrix& packBuf) const;

  /// Batched backward for the most recent forwardBatch(): accumulates dL/dW
  /// and dL/db over the batch (row order, matching per-sample accumulation).
  void backwardBatch(const linalg::Matrix& gradOut);

  /// dL/dX for the most recent backwardBatch(), computed on demand so the
  /// first layer of a network never pays for it. Call before the weights
  /// change; valid until the next batched call on this layer.
  const linalg::Matrix& inputGradBatch();

  /// Clear accumulated weight/bias gradients.
  void zeroGrad();

  /// Input width.
  std::size_t inDim() const { return weights_.cols(); }
  /// Output width.
  std::size_t outDim() const { return weights_.rows(); }
  /// Fused activation applied after the affine map.
  Activation activation() const { return act_; }
  /// Number of weights + biases.
  std::size_t parameterCount() const { return weights_.size() + bias_.size(); }

  /// Weight matrix (outDim × inDim), mutable for optimizers.
  linalg::Matrix& weights() { return weights_; }
  /// Weight matrix, read-only.
  const linalg::Matrix& weights() const { return weights_; }
  /// Bias vector, mutable for optimizers.
  linalg::Vector& bias() { return bias_; }
  /// Bias vector, read-only.
  const linalg::Vector& bias() const { return bias_; }
  /// Accumulated weight gradient, read-only.
  const linalg::Matrix& gradWeights() const { return gradW_; }
  /// Accumulated bias gradient, read-only.
  const linalg::Vector& gradBias() const { return gradB_; }
  /// Accumulated weight gradient, mutable (optimizers consume it).
  linalg::Matrix& gradWeights() { return gradW_; }
  /// Accumulated bias gradient, mutable.
  linalg::Vector& gradBias() { return gradB_; }

 private:
  linalg::Matrix weights_;  // outDim x inDim
  linalg::Vector bias_;     // outDim
  linalg::Matrix gradW_;
  linalg::Vector gradB_;
  Activation act_;

  // Caches from the most recent forward().
  linalg::Vector lastInput_;
  linalg::Vector lastPre_;
  linalg::Vector lastOut_;

  // Caches/workspaces for the batched path; capacity persists across calls.
  linalg::Matrix lastInputB_;
  linalg::Matrix lastPreB_;
  linalg::Matrix lastOutB_;
  linalg::Matrix packB_;    // W^T, repacked per batched call
  linalg::Matrix gradOutB_; // activation-grad workspace
  linalg::Matrix gradInB_;  // dL/dX from inputGradBatch()
};

}  // namespace trdse::nn
