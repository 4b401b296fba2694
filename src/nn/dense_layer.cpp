#include "nn/dense_layer.hpp"

#include <cassert>
#include <cmath>

namespace trdse::nn {

DenseLayer::DenseLayer(std::size_t inDim, std::size_t outDim, Activation act)
    : weights_(outDim, inDim),
      bias_(outDim, 0.0),
      gradW_(outDim, inDim),
      gradB_(outDim, 0.0),
      act_(act) {}

void DenseLayer::initWeights(std::mt19937_64& rng) {
  const double fanIn = static_cast<double>(inDim());
  const double fanOut = static_cast<double>(outDim());
  double limit;
  if (act_ == Activation::kRelu) {
    limit = std::sqrt(6.0 / fanIn);  // He uniform
  } else {
    limit = std::sqrt(6.0 / (fanIn + fanOut));  // Glorot uniform
  }
  std::uniform_real_distribution<double> dist(-limit, limit);
  for (std::size_t r = 0; r < weights_.rows(); ++r)
    for (std::size_t c = 0; c < weights_.cols(); ++c) weights_(r, c) = dist(rng);
  std::fill(bias_.begin(), bias_.end(), 0.0);
}

linalg::Vector DenseLayer::predict(const linalg::Vector& x) const {
  assert(x.size() == inDim());
  linalg::Vector y = matVec(weights_, x);
  for (std::size_t i = 0; i < bias_.size(); ++i) y[i] += bias_[i];
  applyActivation(act_, y);
  return y;
}

const linalg::Matrix& DenseLayer::forwardBatch(const linalg::Matrix& x) {
  assert(x.cols() == inDim());
  lastInputB_ = x;
  matMulTransBBiasInto(x, weights_, bias_, lastPreB_, packB_);
  lastOutB_ = lastPreB_;
  applyActivation(act_, lastOutB_);
  return lastOutB_;
}

void DenseLayer::predictBatch(const linalg::Matrix& x, linalg::Matrix& out,
                              linalg::Matrix& packBuf) const {
  assert(x.cols() == inDim());
  matMulTransBBiasInto(x, weights_, bias_, out, packBuf);
  applyActivation(act_, out);
}

void DenseLayer::backwardBatch(const linalg::Matrix& gradOut) {
  assert(gradOut.cols() == outDim());
  assert(gradOut.rows() == lastInputB_.rows() && "forwardBatch must precede");
  gradOutB_ = gradOut;
  applyActivationGrad(act_, lastPreB_, lastOutB_, gradOutB_);
  // dW += G^T X and db += column sums of G in one pass, both accumulated in
  // ascending row order.
  gemmAtBAccum(gradOutB_, lastInputB_, gradW_, gradB_);
}

const linalg::Matrix& DenseLayer::inputGradBatch() {
  // dL/dX = G * W.
  matMulInto(gradOutB_, weights_, gradInB_);
  return gradInB_;
}

void DenseLayer::zeroGrad() {
  gradW_.fill(0.0);
  std::fill(gradB_.begin(), gradB_.end(), 0.0);
}

}  // namespace trdse::nn
