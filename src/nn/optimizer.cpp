#include "nn/optimizer.hpp"

#include <cmath>

namespace trdse::nn {

namespace {

/// Calls update(params, grads, offset, count) once per parameter block of
/// `net`, in flat-parameter order: each layer's weights, then its bias.
/// `offset` is the block's start in that flat layout (the moment vectors
/// share it).
template <typename F>
void forEachParameterBlock(Mlp& net, F&& update) {
  std::size_t off = 0;
  for (auto& layer : net.layers()) {
    auto& w = layer.weights();
    update(w.data(), layer.gradWeights().data(), off, w.size());
    off += w.size();
    auto& b = layer.bias();
    update(b.data(), layer.gradBias().data(), off, b.size());
    off += b.size();
  }
}

}  // namespace

// Both steps update every parameter in one pass over the gradients, zeroing
// each gradient as it is consumed. Keep each per-element expression as it is:
// seeded training runs and checkpointed moments are pinned to its rounding
// (nn_test compares it bit for bit with a three-pass reference).

SgdOptimizer::SgdOptimizer(double lr, double momentum)
    : lr_(lr), momentum_(momentum) {}

void SgdOptimizer::step(Mlp& net) {
  if (momentum_ > 0.0 && velocity_.size() != net.parameterCount())
    velocity_.assign(net.parameterCount(), 0.0);
  const double alpha = -lr_;
  const double mu = momentum_;
  forEachParameterBlock(net, [&](double* TRDSE_RESTRICT p,
                                 double* TRDSE_RESTRICT g, std::size_t off,
                                 std::size_t count) {
    double* TRDSE_RESTRICT vel = mu > 0.0 ? velocity_.data() + off : nullptr;
    for (std::size_t i = 0; i < count; ++i) {
      double d = g[i];
      if (vel != nullptr) {
        vel[i] = mu * vel[i] + d;
        d = vel[i];
      }
      p[i] += alpha * d;
      g[i] = 0.0;
    }
  });
}

AdamOptimizer::AdamOptimizer(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

void AdamOptimizer::reset() {
  t_ = 0;
  m_.clear();
  v_.clear();
}

void AdamOptimizer::step(Mlp& net) {
  const std::size_t n = net.parameterCount();
  if (m_.size() != n) {
    m_.assign(n, 0.0);
    v_.assign(n, 0.0);
    t_ = 0;
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const double alpha = -lr_;
  const double beta1 = beta1_;
  const double beta2 = beta2_;
  const double eps = eps_;
  forEachParameterBlock(net, [&](double* TRDSE_RESTRICT p,
                                 double* TRDSE_RESTRICT g, std::size_t off,
                                 std::size_t count) {
    double* TRDSE_RESTRICT m = m_.data() + off;
    double* TRDSE_RESTRICT v = v_.data() + off;
    for (std::size_t i = 0; i < count; ++i) {
      m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
      v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
      const double mHat = m[i] / bc1;
      const double vHat = v[i] / bc2;
      p[i] += alpha * (mHat / (std::sqrt(vHat) + eps));
      g[i] = 0.0;
    }
  });
}

}  // namespace trdse::nn
