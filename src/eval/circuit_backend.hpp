// EvalBackend over a registered circuit scenario (circuits::Registry).
//
// Where CallbackBackend wraps a designer-supplied lambda, CircuitBackend is
// constructed from a (circuit, process) name pair: the registry builds the
// full SizingProblem (space, measurements, default specs, evaluator) and the
// backend exposes its evaluator to the engine. Examples and tests get a
// schedulable simulator for any of the four paper circuits from two strings.
#pragma once

#include <string>
#include <string_view>

#include "core/problem.hpp"
#include "eval/backend.hpp"

namespace trdse::eval {

class CircuitBackend final : public EvalBackend {
 public:
  /// Build from registry names. Empty `process` uses the circuit's default
  /// card; throws std::invalid_argument on unknown circuit/process names.
  explicit CircuitBackend(std::string_view circuit,
                          std::string_view process = {});

  /// "circuit:<problem name>" (e.g. "circuit:ico_n5") — used in per-backend
  /// timing reports.
  std::string_view name() const override { return label_; }

  /// The built-in registry circuits evaluate through the lane engines
  /// (sim/op_batch.hpp): batch width sim::kSimLanes. A user-registered
  /// problem without a batch evaluator has width 1 and loops `evaluate`.
  std::size_t batchWidth() const override {
    return problem_.evaluateBatch ? sim::kSimLanes : 1;
  }

  void evaluateBatch(const linalg::Vector* const* sizes,
                     const sim::PvtCorner* corners,
                     const EvalContext* /*contexts*/,
                     core::EvalResult* results,
                     std::size_t count) const override {
    if (problem_.evaluateBatch) {
      problem_.evaluateBatch(sizes, corners, results, count);
    } else {
      for (std::size_t i = 0; i < count; ++i)
        results[i] = problem_.evaluate(*sizes[i], corners[i]);
    }
  }

  /// The registry-built problem (space, specs, measurement names, corners) —
  /// callers construct engines and value functions from it.
  const core::SizingProblem& problem() const { return problem_; }

 private:
  core::SizingProblem problem_;
  std::string label_;
};

}  // namespace trdse::eval
