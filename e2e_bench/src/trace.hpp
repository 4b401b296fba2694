// In-memory spans of a traced run, their per-layer self times, and the
// Chrome trace-event file they are written to when the run ends.
//
// Spans are recorded by the harness around its calls into each layer
// (workload -> round -> sim call; submission -> admit/queue/run). A span's
// self time is its duration minus the part of its interval that its child
// spans cover (the union of the children, so parallel children count once).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  std::string layer;        ///< bench | orch | sim | serve
  std::uint64_t id = 0;     ///< unique within the run, > 0
  std::uint64_t parent = 0; ///< 0 = root
  std::int64_t startNs = 0; ///< steady clock
  std::int64_t endNs = 0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
};

/// Steady-clock nanoseconds (CLOCK_MONOTONIC: comparable across processes).
std::int64_t steadyNs();

/// Sum of self time per layer, in seconds.
std::map<std::string, double> selfSecondsByLayer(const std::vector<Span>& spans);

/// Write `spans` as Chrome trace-event JSON ("X" complete events, times in
/// microseconds relative to the earliest span). Throws std::runtime_error
/// when the file cannot be written.
void writeChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace e2e
