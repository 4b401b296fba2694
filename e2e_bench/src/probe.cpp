#include "probe.hpp"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#include "sim/sim_profile.hpp"

namespace e2e {

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void phaseTotals(std::uint64_t out[4]) {
  const trdse::sim::SimPhaseTotals t = trdse::sim::simPhaseTotals();
  out[0] = t.deviceEvalNs;
  out[1] = t.stampNs;
  out[2] = t.factorNs;
  out[3] = t.solveNs;
}

}  // namespace

double SimCounters::laneFill(std::size_t lanes) const {
  if (batchCalls == 0 || lanes == 0) return 0.0;
  return static_cast<double>(batchPoints) /
         (static_cast<double>(batchCalls) * static_cast<double>(lanes));
}

double SimCounters::batchedShare() const {
  const std::uint64_t total = points();
  return total == 0 ? 0.0
                    : static_cast<double>(batchPoints) /
                          static_cast<double>(total);
}

struct SimProbe::Shared {
  std::atomic<std::uint64_t> scalarCalls{0};
  std::atomic<std::uint64_t> batchCalls{0};
  std::atomic<std::uint64_t> scalarPoints{0};
  std::atomic<std::uint64_t> batchPoints{0};
  std::atomic<std::uint64_t> busyNs{0};
  std::atomic<std::uint64_t> phaseNs[4] = {{0}, {0}, {0}, {0}};
  std::atomic<std::uint64_t> parent{0};
  std::atomic<std::uint64_t> nextRecord{0};
  std::atomic<std::uint64_t> dropped{0};

  SimCallRecord* records() {
    return reinterpret_cast<SimCallRecord*>(this + 1);
  }
};

static_assert(alignof(SimCallRecord) <= alignof(std::atomic<std::uint64_t>));
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "process-shared counters need lock-free atomics");

SimProbe::SimProbe(std::size_t spanCapacity)
    : capacity_(spanCapacity), ownerPid_(static_cast<int>(::getpid())) {
  bytes_ = sizeof(Shared) + capacity_ * sizeof(SimCallRecord);
  void* mem = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED)
    throw std::runtime_error(std::string("SimProbe: mmap failed: ") +
                             std::strerror(errno));
  shared_ = new (mem) Shared();
}

SimProbe::~SimProbe() {
  shared_->~Shared();
  ::munmap(shared_, bytes_);
}

void SimProbe::reset() {
  shared_->scalarCalls = 0;
  shared_->batchCalls = 0;
  shared_->scalarPoints = 0;
  shared_->batchPoints = 0;
  shared_->busyNs = 0;
  for (auto& p : shared_->phaseNs) p = 0;
  shared_->parent = 0;
  shared_->nextRecord = 0;
  shared_->dropped = 0;
  trdse::sim::resetSimPhaseTotals();
}

void SimProbe::setParentSpan(std::uint64_t id) { shared_->parent = id; }

void SimProbe::record(std::int64_t startNs, std::uint32_t job,
                      std::uint32_t points, bool batch,
                      const std::uint64_t* phaseBefore) const {
  const std::int64_t endNs = nowNs();
  Shared& s = *shared_;
  (batch ? s.batchCalls : s.scalarCalls).fetch_add(1);
  (batch ? s.batchPoints : s.scalarPoints).fetch_add(points);
  s.busyNs.fetch_add(static_cast<std::uint64_t>(endNs - startNs));
  if (phaseBefore != nullptr) {
    // Another process's phase counters never reach the owner's totals; ship
    // the call's delta. (Worker processes step one job at a time, so the
    // delta is this call's alone.)
    std::uint64_t after[4];
    phaseTotals(after);
    for (int i = 0; i < 4; ++i) s.phaseNs[i].fetch_add(after[i] - phaseBefore[i]);
  }
  const std::uint64_t slot = s.nextRecord.fetch_add(1);
  if (slot >= capacity_) {
    s.dropped.fetch_add(1);
    return;
  }
  SimCallRecord& r = s.records()[slot];
  r.startNs = startNs;
  r.endNs = endNs;
  r.parent = s.parent.load();
  r.pid = static_cast<std::uint32_t>(::getpid());
  r.tid = static_cast<std::uint32_t>(::syscall(SYS_gettid));
  r.job = job;
  r.points = points;
  r.batch = batch;
}

trdse::core::SizingProblem SimProbe::decorate(
    trdse::core::SizingProblem problem, std::uint32_t job) const {
  const SimProbe* self = this;
  problem.evaluate = [self, job, inner = std::move(problem.evaluate)](
                         const trdse::linalg::Vector& sizes,
                         const trdse::sim::PvtCorner& corner) {
    std::uint64_t before[4];
    const bool foreign = ::getpid() != self->ownerPid_;
    if (foreign) phaseTotals(before);
    const std::int64_t t0 = nowNs();
    trdse::core::EvalResult r = inner(sizes, corner);
    self->record(t0, job, 1, false, foreign ? before : nullptr);
    return r;
  };
  if (problem.evaluateBatch) {
    problem.evaluateBatch =
        [self, job, inner = std::move(problem.evaluateBatch)](
            const trdse::linalg::Vector* const* sizes,
            const trdse::sim::PvtCorner* corners,
            trdse::core::EvalResult* results, std::size_t count) {
          std::uint64_t before[4];
          const bool foreign = ::getpid() != self->ownerPid_;
          if (foreign) phaseTotals(before);
          const std::int64_t t0 = nowNs();
          inner(sizes, corners, results, count);
          self->record(t0, job, static_cast<std::uint32_t>(count), true,
                       foreign ? before : nullptr);
        };
  }
  return problem;
}

SimCounters SimProbe::snapshot() const {
  SimCounters c;
  c.scalarCalls = shared_->scalarCalls.load();
  c.batchCalls = shared_->batchCalls.load();
  c.scalarPoints = shared_->scalarPoints.load();
  c.batchPoints = shared_->batchPoints.load();
  c.busyNs = shared_->busyNs.load();
  std::uint64_t own[4];
  phaseTotals(own);
  for (int i = 0; i < 4; ++i) c.phaseNs[i] = own[i] + shared_->phaseNs[i].load();
  c.spansDropped = shared_->dropped.load();
  return c;
}

std::vector<SimCallRecord> SimProbe::calls() const {
  const std::size_t n =
      std::min<std::size_t>(shared_->nextRecord.load(), capacity_);
  return std::vector<SimCallRecord>(shared_->records(),
                                    shared_->records() + n);
}

}  // namespace e2e
