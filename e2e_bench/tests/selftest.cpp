// Self-tests of the benchmark harness:
//   - the percentile reporting rule
//   - lane-fill / batched-share arithmetic on a fake problem
//   - span self time (union of children)
//   - the sim decorator is transparent: decorated and plain runs give equal
//     per-job rows and the same engine batch width
//   - decorator counters survive the fork under workers = 2
//
// Build and run: python3 e2e_bench/run.py --self-test
// (or ctest in the benchmark's build directory). Exit code 0 = all passed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "eval/eval_engine.hpp"
#include "orch/distributed.hpp"
#include "orch/scheduler.hpp"
#include "probe.hpp"
#include "sim/mosfet.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

void testPercentileRule() {
  CHECK(e2e::highestTailPercentile(19) == 0.0);
  CHECK(e2e::highestTailPercentile(20) == 50.0);
  CHECK(e2e::highestTailPercentile(40) == 75.0);
  CHECK(e2e::highestTailPercentile(99) == 75.0);
  CHECK(e2e::highestTailPercentile(100) == 90.0);
  CHECK(e2e::highestTailPercentile(199) == 90.0);
  CHECK(e2e::highestTailPercentile(200) == 95.0);
  CHECK(e2e::highestTailPercentile(1000) == 99.0);
  CHECK(e2e::highestTailPercentile(10000) == 99.9);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(e2e::percentile(v, 90.0) == 90.0);  // ten samples (91..100) beyond
  CHECK(e2e::percentile(v, 100.0) == 100.0);
  CHECK(e2e::median(v) == 50.5);
  CHECK(e2e::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(e2e::median({}) == 0.0);
}

trdse::core::SizingProblem fakeProblem(bool withBatch) {
  trdse::core::SizingProblem p;
  p.name = "fake";
  p.space = trdse::core::DesignSpace({{"x", 0.0, 1.0, 16, false}});
  p.measurementNames = {"y"};
  p.corners = {trdse::sim::PvtCorner{}};
  p.evaluate = [](const trdse::linalg::Vector& x, const trdse::sim::PvtCorner&) {
    trdse::core::EvalResult r;
    r.ok = true;
    r.measurements = trdse::linalg::Vector(1, x[0]);
    return r;
  };
  if (withBatch)
    p.evaluateBatch = [f = p.evaluate](const trdse::linalg::Vector* const* sizes,
                                       const trdse::sim::PvtCorner* corners,
                                       trdse::core::EvalResult* out,
                                       std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) out[i] = f(*sizes[i], corners[i]);
    };
  return p;
}

void testLaneArithmetic() {
  e2e::SimProbe probe(16);
  const trdse::core::SizingProblem p = probe.decorate(fakeProblem(true), 7);
  const trdse::linalg::Vector x(1, 0.25);
  const trdse::sim::PvtCorner c{};
  for (int i = 0; i < 3; ++i) CHECK(p.evaluate(x, c).measurements[0] == 0.25);
  const trdse::linalg::Vector* sizes[4] = {&x, &x, &x, &x};
  const trdse::sim::PvtCorner corners[4] = {c, c, c, c};
  trdse::core::EvalResult out[4];
  p.evaluateBatch(sizes, corners, out, 4);
  p.evaluateBatch(sizes, corners, out, 2);
  CHECK(out[1].ok && out[1].measurements[0] == 0.25);

  const e2e::SimCounters s = probe.snapshot();
  CHECK(s.scalarCalls == 3);
  CHECK(s.batchCalls == 2);
  CHECK(s.points() == 9);
  CHECK(s.laneFill(4) == 0.75);            // 6 points / (2 calls x 4 lanes)
  CHECK(s.batchedShare() == 6.0 / 9.0);
  const auto calls = probe.calls();
  CHECK(calls.size() == 5);
  CHECK(calls.size() == 5 && calls[4].batch && calls[4].points == 2 &&
        calls[4].job == 7);

  probe.reset();
  CHECK(probe.snapshot().scalarCalls + probe.snapshot().batchCalls == 0);
  CHECK(e2e::SimCounters{}.laneFill(4) == 0.0);
  CHECK(e2e::SimCounters{}.batchedShare() == 0.0);

  // The decorator adds a batch path only where the problem had one.
  CHECK(!probe.decorate(fakeProblem(false), 0).evaluateBatch);
}

void testSelfTime() {
  std::vector<e2e::Span> spans(4);
  spans[0] = {"workload", "bench", 1, 0, 0, 100, 1, 1};
  spans[1] = {"round", "orch", 2, 1, 10, 90, 1, 1};
  spans[2] = {"sim a", "sim", 3, 2, 20, 50, 2, 2};
  spans[3] = {"sim b", "sim", 4, 2, 40, 60, 3, 3};  // overlaps sim a
  const auto self = e2e::selfSecondsByLayer(spans);
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-15; };
  CHECK(near(self.at("bench"), 20e-9));  // 100 - 80 covered by the round
  CHECK(near(self.at("orch"), 40e-9));   // 80 - union [20, 60)
  CHECK(near(self.at("sim"), 50e-9));    // leaves: 30 + 20
}

std::vector<std::string> rows(const std::vector<trdse::orch::JobResult>& results) {
  std::vector<std::string> out;
  for (const auto& r : results) {
    const auto& o = r.outcome;
    out.push_back(e2e::formatRow(r.name, o.solved, o.ledger.totalBlocks(),
                                 o.evalStats.simulated, o.evalStats.cacheHits,
                                 o.evalStats.sharedHits, o.bestValue));
  }
  return out;
}

std::uint64_t simulated(const std::vector<trdse::orch::JobResult>& results) {
  std::uint64_t n = 0;
  for (const auto& r : results) n += r.outcome.evalStats.simulated;
  return n;
}

/// The first `jobs` jobs of a workload scenario at a small budget.
trdse::orch::Scenario shrink(trdse::orch::Scenario sc, std::size_t jobs,
                             std::size_t budget) {
  sc.jobs.resize(jobs);
  for (auto& j : sc.jobs) j.budget = budget;
  return sc;
}

void testTransparentAcrossFork() {
  e2e::SimProbe probe(1 << 12);
  // table1_bakeoff's shape: DistributedScheduler, workers = 2.
  const auto plain = trdse::orch::DistributedScheduler(
                         shrink(e2e::table1Scenario(3, nullptr), 4, 64))
                         .run();
  trdse::orch::DistributedScheduler decoratedSched(
      shrink(e2e::table1Scenario(3, &probe), 4, 64));
  CHECK(decoratedSched.scenario().workers == 2);
  const auto decorated = decoratedSched.run();
  CHECK(rows(plain) == rows(decorated));
  const e2e::SimCounters s = probe.snapshot();
  // Every simulation ran in a worker process, yet the parent sees it.
  CHECK(s.points() > 0);
  CHECK(s.points() == simulated(decorated));
  bool allForeign = true;
  for (const auto& c : probe.calls())
    allForeign = allForeign && c.pid != static_cast<std::uint32_t>(::getpid());
  CHECK(allForeign);
}

void testTransparentBatchWidth() {
  e2e::SimProbe probe(1 << 12);
  // table3_pvt's shape: nine corners, lane-batched sweeps, threads = 2.
  trdse::orch::Scheduler plain(shrink(e2e::table3Scenario(5, nullptr), 3, 90));
  trdse::orch::Scheduler decorated(shrink(e2e::table3Scenario(5, &probe), 3, 90));
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t w = plain.strategy(i).engine().backend().batchWidth();
    CHECK(w == static_cast<std::size_t>(trdse::sim::kSimLanes));
    CHECK(decorated.strategy(i).engine().backend().batchWidth() == w);
  }
  const auto a = plain.run();
  const auto b = decorated.run();
  CHECK(rows(a) == rows(b));
  const e2e::SimCounters s = probe.snapshot();
  CHECK(s.batchCalls > 0);
  CHECK(s.points() == simulated(b));
}

}  // namespace

int main() {
  testPercentileRule();
  testLaneArithmetic();
  testSelfTime();
  testTransparentAcrossFork();
  testTransparentBatchWidth();
  if (failures != 0) {
    std::fprintf(stderr, "e2e_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("e2e_selftest: all checks passed\n");
  return 0;
}
