// e2e_bench — one workload of the end-to-end sizing benchmark.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH] [--tmp DIR]
//
// Repeats the workload at the same seed until --seconds are spent (at least
// once; with --trace 1 at least one untraced and one traced repetition,
// alternating), checks every repetition's results, and prints one JSON
// report on stdout: the per-job rows, any problems found, and every metric
// (end-to-end metrics from untraced repetitions, per-layer metrics from
// traced ones). run.py turns it into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/mosfet.hpp"
#include "sim/sim_profile.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using e2e::RepResult;

constexpr int kSetupTrials = 51;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string traceFile;
  std::string tmp = ".bench_build/tmp";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH] [--tmp DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--trace-file") a.traceFile = value;
      else if (flag == "--tmp") a.tmp = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// A metric as reported: value, unit, and how many samples it summarizes.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t n = 1;
};
using Metrics = std::map<std::string, Metric>;

template <class F>
std::vector<double> collect(const std::vector<RepResult>& reps, F f) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(static_cast<double>(f(r)));
  return v;
}

template <class F>
Metric medianOf(const std::vector<RepResult>& reps, const char* unit, F f) {
  return {e2e::median(collect(reps, f)), unit, reps.size()};
}

template <class F>
std::vector<double> pooled(const std::vector<RepResult>& reps, F f) {
  std::vector<double> v;
  for (const RepResult& r : reps)
    for (const e2e::SubmissionSample& s : r.samples) v.push_back(f(s));
  return v;
}

Metric count(double v, const char* unit = "count") { return {v, unit, 1}; }

void addEndToEnd(const std::vector<RepResult>& u, const std::vector<double>& setups,
                 bool daemonSide, Metrics& m) {
  const RepResult& first = u.front();
  m["wall_s"] = medianOf(u, "s", [](const RepResult& r) { return r.wallS; });
  m["setup_s"] = {e2e::median(setups), "s", setups.size()};
  m["sims_per_s"] = medianOf(u, "1/s", [](const RepResult& r) {
    return static_cast<double>(r.sims) / r.wallS;
  });
  m["eda_blocks"] = count(static_cast<double>(first.edaBlocks));
  m["sims"] = count(static_cast<double>(first.sims));
  m["solved_jobs"] = count(static_cast<double>(first.solvedJobs));
  m["fail_frac"] = count(
      static_cast<double>(first.failures + first.failedSubmissions) /
          static_cast<double>(std::max<std::uint64_t>(
              1, first.requests + first.failedSubmissions)),
      "ratio");
  m["peak_rss_mb"] = medianOf(u, "MB", [](const RepResult& r) { return r.peakRssMb; });
  const std::vector<double> lat =
      pooled(u, [](const e2e::SubmissionSample& s) { return s.latencyS; });
  m["submit_p50_s"] = {e2e::median(lat), "s", lat.size()};
  m["submit_p90_s"] = {e2e::percentile(lat, 90.0), "s", lat.size()};
  if (daemonSide && e2e::highestTailPercentile(lat.size()) < 90.0)
    std::fprintf(stderr, "e2e_bench: only %zu submissions: fewer than ten lie beyond p90\n",
                 lat.size());
  m["submits_per_s"] = medianOf(u, "1/s", [](const RepResult& r) {
    return static_cast<double>(r.submissions - r.failedSubmissions) / r.wallS;
  });
}

void addPerLayer(const std::vector<RepResult>& u, const std::vector<RepResult>& t,
                 const std::vector<e2e::SimCounters>& sim,
                 const std::vector<e2e::Span>& lastSpans, bool daemonSide,
                 Metrics& m) {
  const RepResult& last = t.back();
  const e2e::SimCounters& s = sim.back();

  // ---- sim: the decorator's counters. serve_mix simulates inside the
  // daemon, out of the decorator's reach: there only the EvalStats the
  // reports carry (simulated points, backend seconds) stand in.
  std::vector<double> busy;
  for (std::size_t i = 0; i < t.size(); ++i)
    busy.push_back(daemonSide ? t[i].backendS : sim[i].busyNs * 1e-9);
  const double busyS = e2e::median(busy);
  const double points = static_cast<double>(daemonSide ? last.sims : s.points());
  m["sim.scalar_calls"] = count(static_cast<double>(s.scalarCalls));
  m["sim.batch_calls"] = count(static_cast<double>(s.batchCalls));
  m["sim.points"] = count(points);
  m["sim.lane_fill"] = count(s.laneFill(trdse::sim::kSimLanes), "ratio");
  m["sim.batched_share"] = count(s.batchedShare(), "ratio");
  m["sim.busy_s"] = {busyS, "s", t.size()};
  m["sim.us_per_point"] = {points > 0 ? busyS / points * 1e6 : 0.0, "us", t.size()};
  const char* phases[] = {"sim.phase.device_eval_s", "sim.phase.stamp_s",
                          "sim.phase.factor_s", "sim.phase.solve_s"};
  for (int p = 0; p < 4; ++p) {
    std::vector<double> v;
    for (const auto& c : sim) v.push_back(c.phaseNs[p] * 1e-9);
    m[phases[p]] = {e2e::median(v), "s", v.size()};
  }

  // ---- eval
  m["eval.requests"] = count(static_cast<double>(last.requests));
  m["eval.cache_hits"] = count(static_cast<double>(last.cacheHits));
  m["eval.shared_hits"] = count(static_cast<double>(last.sharedHits));
  m["eval.hit_rate"] = count(
      last.requests == 0 ? 0.0
                         : static_cast<double>(last.cacheHits + last.sharedHits) /
                               static_cast<double>(last.requests),
      "ratio");
  m["eval.attempts"] = count(static_cast<double>(last.attempts));
  m["eval.failures"] = count(static_cast<double>(last.failures));
  m["eval.backend_s"] = medianOf(t, "s", [](const RepResult& r) { return r.backendS; });
  m["eval.shared_entries"] = count(static_cast<double>(last.sharedEntries));

  // ---- opt: process CPU minus simulator time, and the per-strategy split.
  std::vector<double> searchCpu;
  for (std::size_t i = 0; i < t.size(); ++i) searchCpu.push_back(t[i].cpuS - busy[i]);
  m["opt.search_cpu_s"] = {e2e::median(searchCpu), "s", t.size()};
  for (const char* strategy :
       {"pvt_search", "random_search", "tree_bayes_opt", "rl_policy"}) {
    const auto it = last.requestsByStrategy.find(strategy);
    m[std::string("opt.requests.") + strategy] =
        count(it == last.requestsByStrategy.end() ? 0.0 : static_cast<double>(it->second));
    m[std::string("opt.sim_s.") + strategy] =
        medianOf(t, "s", [strategy](const RepResult& r) {
          const auto j = r.backendSByStrategy.find(strategy);
          return j == r.backendSByStrategy.end() ? 0.0 : j->second;
        });
  }

  // ---- orch (serve_mix: the daemon's rounds are not observable from here)
  std::vector<double> rounds;
  for (const RepResult& r : t) rounds.insert(rounds.end(), r.roundMs.begin(), r.roundMs.end());
  m["orch.rounds"] = count(static_cast<double>(last.roundMs.size()));
  m["orch.round_p50_ms"] = {e2e::median(rounds), "ms", rounds.size()};
  m["orch.round_max_ms"] = {e2e::percentile(rounds, 100.0), "ms", rounds.size()};
  m["orch.cpu_util"] = medianOf(t, "ratio", [](const RepResult& r) { return r.cpuS / r.wallS; });
  m["orch.worker_respawns"] = count(static_cast<double>(last.workerRespawns));

  // ---- serve (zero on the batch workloads, which have no daemon)
  auto p50 = [&t](double e2e::SubmissionSample::*field, bool warm, bool cold) {
    std::vector<double> v;
    for (const RepResult& r : t)
      for (const e2e::SubmissionSample& x : r.samples)
        if ((x.warm && warm) || (!x.warm && cold)) v.push_back(x.*field);
    return Metric{e2e::median(v), "s", v.size()};
  };
  auto inMs = [](Metric x) {
    x.value *= 1e3;
    x.unit = "ms";
    return x;
  };
  using Sample = e2e::SubmissionSample;
  m["serve.admit_p50_ms"] = inMs(p50(&Sample::admitS, true, true));
  m["serve.queue_wait_p50_ms"] = inMs(p50(&Sample::queueS, true, true));
  m["serve.run_p50_ms"] = inMs(p50(&Sample::runS, true, true));
  m["serve.warm_p50_s"] = p50(&Sample::latencyS, true, false);
  m["serve.cold_p50_s"] = p50(&Sample::latencyS, false, true);
  std::size_t warm = 0;
  for (const Sample& x : last.samples) warm += x.warm ? 1 : 0;
  m["serve.repeat_share"] = count(
      last.samples.empty() ? 0.0
                           : static_cast<double>(warm) / static_cast<double>(last.samples.size()),
      "ratio");
  m["serve.daemon_cpu_s"] = medianOf(t, "s", [](const RepResult& r) { return r.daemonCpuS; });
  m["serve.daemon_wchar_mb"] =
      medianOf(t, "MB", [](const RepResult& r) { return r.daemonWcharMb; });
  m["serve.daemon_write_calls"] = medianOf(t, "count", [](const RepResult& r) {
    return static_cast<double>(r.daemonWriteCalls);
  });
  m["serve.state_mb"] = medianOf(t, "MB", [](const RepResult& r) { return r.stateMb; });
  if (!daemonSide)
    for (auto& [name, metric] : m)
      if (name.rfind("serve.", 0) == 0) metric.value = 0.0;

  // ---- tracing
  const double wallU = e2e::median(collect(u, [](const RepResult& r) { return r.wallS; }));
  const double wallT = e2e::median(collect(t, [](const RepResult& r) { return r.wallS; }));
  m["trace.overhead_frac"] = {wallT / wallU - 1.0, "ratio", t.size()};
  const auto self = e2e::selfSecondsByLayer(lastSpans);
  for (const char* layer : {"bench", "orch", "sim", "serve"}) {
    const auto it = self.find(layer);
    m[std::string("span.self_s.") + layer] = {it == self.end() ? 0.0 : it->second, "s", 1};
  }
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printReport(const Args& a, std::size_t untraced, std::size_t traced,
                 const std::vector<std::string>& rows,
                 const std::vector<std::string>& problems,
                 std::uint64_t attempted, std::uint64_t failed, const Metrics& m) {
  std::string out = "{\"workload\":" + jsonString(a.workload) +
                    ",\"seed\":" + std::to_string(a.seed) +
                    ",\"trace\":" + (a.trace ? "1" : "0") +
                    ",\"reps\":{\"untraced\":" + std::to_string(untraced) +
                    ",\"traced\":" + std::to_string(traced) + "}";
  auto appendList = [&out](const char* key, const std::vector<std::string>& v) {
    out += ",\"";
    out += key;
    out += "\":[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out += ',';
      out += jsonString(v[i]);
    }
    out += ']';
  };
  appendList("rows", rows);
  appendList("problems", problems);
  out += ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (auto it = m.begin(); it != m.end(); ++it) {
    if (it != m.begin()) out += ',';
    out += jsonString(it->first);
    out += ":{\"value\":" + jsonNumber(it->second.value) +
           ",\"unit\":" + jsonString(it->second.unit) +
           ",\"n\":" + std::to_string(it->second.n) + "}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parseArgs(argc, argv);

  try {
    // Made before any fork so worker processes share its counters.
    e2e::SimProbe probe(a.trace ? std::size_t{1} << 18 : 0);
    std::uint64_t nextSpanId = 0;
    std::vector<RepResult> untraced, traced;
    std::vector<e2e::SimCounters> sim;
    std::vector<e2e::Span> lastSpans;
    std::vector<double> repSeconds;
    std::vector<std::string> rows, problems;
    std::uint64_t attempted = 0, failed = 0;

    // Set-up takes milliseconds: time many set-ups and report their median.
    std::vector<double> setups;
    if (!a.trace)
      for (int k = 0; k < kSetupTrials; ++k)
        setups.push_back(e2e::setupTrial(a.workload, a.seed, a.tmp));

    const std::int64_t start = e2e::steadyNs();
    for (std::size_t i = 0;; ++i) {
      e2e::RepContext ctx;
      ctx.traced = a.trace && i % 2 == 1;
      ctx.probe = &probe;
      ctx.nextSpanId = &nextSpanId;
      ctx.tmpRoot = a.tmp;
      if (ctx.traced) {
        probe.reset();
        trdse::sim::setSimProfiling(true);  // inherited by forked workers
      }
      const std::int64_t repStart = e2e::steadyNs();
      RepResult rep = e2e::runRepetition(a.workload, a.seed, ctx);
      repSeconds.push_back((e2e::steadyNs() - repStart) * 1e-9);
      trdse::sim::setSimProfiling(false);

      if (i == 0) rows = rep.rows;
      else if (rep.rows != rows)
        problems.push_back("repetition " + std::to_string(i + 1) +
                           (ctx.traced ? " (traced)" : "") +
                           " rows differ from repetition 1");
      problems.insert(problems.end(), rep.problems.begin(), rep.problems.end());
      attempted += rep.requests + rep.failedSubmissions;
      failed += rep.failures + rep.failedSubmissions;
      if (ctx.traced) {
        sim.push_back(probe.snapshot());
        if (sim.back().spansDropped != 0)
          std::fprintf(stderr, "e2e_bench: %llu sim spans over capacity (counted, not traced)\n",
                       static_cast<unsigned long long>(sim.back().spansDropped));
        lastSpans = std::move(rep.spans);
        for (const e2e::SimCallRecord& c : probe.calls()) {
          e2e::Span s;
          s.name = (c.batch ? "sim batch x" + std::to_string(c.points) : "sim scalar") +
                   " job " + std::to_string(c.job);
          s.layer = "sim";
          s.id = ++nextSpanId;
          s.parent = c.parent;
          s.startNs = c.startNs;
          s.endNs = c.endNs;
          s.pid = c.pid;
          s.tid = c.tid;
          lastSpans.push_back(std::move(s));
        }
        rep.spans.clear();
        traced.push_back(std::move(rep));
      } else {
        untraced.push_back(std::move(rep));
      }

      const bool enough = !untraced.empty() && (!a.trace || !traced.empty());
      const double elapsed = (e2e::steadyNs() - start) * 1e-9;
      if (enough && elapsed + e2e::median(repSeconds) > a.seconds) break;
    }

    if (a.workload == "serve_mix") {
      const auto cross = e2e::crossCheckFreshRuns(untraced.front());
      problems.insert(problems.end(), cross.begin(), cross.end());
    }

    Metrics m;
    if (a.trace) {
      addPerLayer(untraced, traced, sim, lastSpans, a.workload == "serve_mix", m);
      if (!a.traceFile.empty()) e2e::writeChromeTrace(a.traceFile, lastSpans);
    } else {
      addEndToEnd(untraced, setups, a.workload == "serve_mix", m);
    }
    printReport(a, untraced.size(), traced.size(), rows, problems, attempted,
                failed, m);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
