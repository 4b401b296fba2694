// First-order optimizers over an Mlp's flat parameter space.
#pragma once

#include <memory>

#include "nn/mlp.hpp"

namespace trdse::nn {

/// Interface of a first-order optimizer over an Mlp's flat parameters.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Apply one update using the gradients currently accumulated in `net`,
  /// zeroing them as they are consumed.
  virtual void step(Mlp& net) = 0;
  /// Drop all optimizer state (moments, step counters).
  virtual void reset() = 0;
  /// Current step size.
  virtual double learningRate() const = 0;
  /// Change the step size (schedules, warm restarts).
  virtual void setLearningRate(double lr) = 0;
};

/// Plain SGD with optional classical momentum.
class SgdOptimizer final : public Optimizer {
 public:
  /// Configure step size and momentum coefficient (0 = vanilla SGD).
  explicit SgdOptimizer(double lr, double momentum = 0.0);
  void step(Mlp& net) override;
  void reset() override { velocity_.clear(); }
  double learningRate() const override { return lr_; }
  void setLearningRate(double lr) override { lr_ = lr; }

 private:
  double lr_;
  double momentum_;
  linalg::Vector velocity_;
};

/// Adam (Kingma & Ba) — the default for both the surrogate f_NN and the RL
/// baselines' actor/critic networks.
class AdamOptimizer final : public Optimizer {
 public:
  /// Configure step size and moment decay rates.
  explicit AdamOptimizer(double lr, double beta1 = 0.9, double beta2 = 0.999,
                         double eps = 1e-8);
  void step(Mlp& net) override;
  void reset() override;
  double learningRate() const override { return lr_; }
  void setLearningRate(double lr) override { lr_ = lr; }

  // Checkpoint access: Adam's state is (step count, first/second moments);
  // restoring it mid-training resumes the exact bias-corrected update stream.

  /// Updates applied so far (the bias-correction exponent).
  long stepCount() const { return t_; }
  /// First-moment estimate (flat parameter layout; empty before any step).
  const linalg::Vector& firstMoments() const { return m_; }
  /// Second-moment estimate (flat parameter layout; empty before any step).
  const linalg::Vector& secondMoments() const { return v_; }
  /// Install checkpointed state; empty moments mean a freshly-reset optimizer.
  void restoreState(long t, linalg::Vector m, linalg::Vector v) {
    t_ = t;
    m_ = std::move(m);
    v_ = std::move(v);
  }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  long t_ = 0;
  linalg::Vector m_;
  linalg::Vector v_;
};

}  // namespace trdse::nn
