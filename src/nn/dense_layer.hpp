// A fully-connected layer with a fused activation: y = act(W x + b).
//
// Training runs on row-major batches: gradients accumulate into gradW/gradB
// until zeroGrad() or an optimizer step consumes them, and inputGradBatch()
// yields dL/dX so the owning Mlp can chain layers.
#pragma once

#include <cstdint>
#include <random>

#include "linalg/matrix.hpp"
#include "nn/activation.hpp"

namespace trdse::nn {

/// One fully-connected layer (y = act(W x + b)): single-row inference plus
/// batched forward/backward.
class DenseLayer {
 public:
  /// Construct with zeroed weights; call initWeights() before use.
  DenseLayer(std::size_t inDim, std::size_t outDim, Activation act);

  /// Xavier/Glorot uniform for tanh/identity, He for relu.
  void initWeights(std::mt19937_64& rng);

  /// Single-row stateless inference (bitwise identical to one row of
  /// predictBatch).
  linalg::Vector predict(const linalg::Vector& x) const;

  // ---- Batched path (batch × dim row-major matrices) ----
  //
  // One GEMM per layer; the cache matrices persist across calls, so the
  // steady-state training/planning loop does not allocate.

  /// Batched forward; caches the batch for backwardBatch(). Returns the
  /// activation matrix (valid until the next batched call on this layer).
  const linalg::Matrix& forwardBatch(const linalg::Matrix& x);

  /// Batched stateless inference: out = act(x · W^T + b). `packBuf` receives
  /// the packed transpose of the weights; pass a caller-owned scratch matrix
  /// to keep repeated calls allocation-free.
  void predictBatch(const linalg::Matrix& x, linalg::Matrix& out,
                    linalg::Matrix& packBuf) const;

  /// Batched backward for the most recent forwardBatch(): accumulates dL/dW
  /// and dL/db over the batch in ascending row order.
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

  // Caches/workspaces for the batched path; capacity persists across calls.
  linalg::Matrix lastInputB_;
  linalg::Matrix lastPreB_;
  linalg::Matrix lastOutB_;
  linalg::Matrix packB_;    // W^T, repacked per batched call
  linalg::Matrix gradOutB_; // activation-grad workspace
  linalg::Matrix gradInB_;  // dL/dX from inputGradBatch()
};

}  // namespace trdse::nn
