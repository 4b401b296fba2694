// Command-line netlist runner: parse a SPICE-style netlist from a file (or
// stdin), solve the DC operating point, and optionally sweep AC or noise at
// a named output node — a minimal "decorated SPICE" front door.
//
// Usage:
//   netlist_tool <file|-> [--card bsim45] [--corner TT|FF|SS|FS|SF]
//                [--vdd <V>] [--temp <C>] [--ac <outNode>] [--noise <outNode>]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sim/ac.hpp"
#include "sim/netlist_io.hpp"
#include "sim/noise.hpp"
#include "sim/op_batch.hpp"

using namespace trdse;

namespace {

sim::ProcessCorner parseCorner(const std::string& s) {
  if (s == "FF") return sim::ProcessCorner::kFF;
  if (s == "SS") return sim::ProcessCorner::kSS;
  if (s == "FS") return sim::ProcessCorner::kFS;
  if (s == "SF") return sim::ProcessCorner::kSF;
  return sim::ProcessCorner::kTT;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: netlist_tool <file|-> [--card NAME] [--corner TT] "
                 "[--vdd V] [--temp C] [--ac NODE] [--noise NODE]\n");
    return 2;
  }

  std::string cardName = "bsim45";
  sim::PvtCorner corner{sim::ProcessCorner::kTT, 1.1, 27.0};
  std::string acNode;
  std::string noiseNode;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--card") cardName = next();
    else if (a == "--corner") corner.corner = parseCorner(next());
    else if (a == "--vdd") corner.vdd = std::atof(next());
    else if (a == "--temp") corner.tempC = std::atof(next());
    else if (a == "--ac") acNode = next();
    else if (a == "--noise") noiseNode = next();
  }

  std::string text;
  if (std::strcmp(argv[1], "-") == 0) {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    text = buf.str();
  } else {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }

  const auto parsed = sim::parseNetlist(text, sim::cardByName(cardName), corner);
  if (!parsed.netlist.has_value()) {
    std::fprintf(stderr, "parse error, line %zu: %s\n", parsed.error.line,
                 parsed.error.message.c_str());
    return 1;
  }
  const sim::Netlist& nl = *parsed.netlist;
  std::printf("* card=%s corner=%s nodes=%zu devices: R=%zu C=%zu L=%zu M=%zu "
              "D=%zu V=%zu I=%zu\n",
              cardName.c_str(), corner.name().c_str(), nl.nodeCount(),
              nl.resistors().size(), nl.capacitors().size(),
              nl.inductors().size(), nl.mosfets().size(), nl.diodes().size(),
              nl.vsources().size(), nl.isources().size());

  const sim::DcResult op = sim::solveDcBatch({&nl}, {})[0];
  if (!op.converged) {
    std::fprintf(stderr, "DC operating point did not converge\n");
    return 1;
  }
  std::printf("* DC operating point (%d Newton iterations)\n", op.iterations);
  for (std::size_t n = 1; n < nl.nodeCount(); ++n)
    std::printf("  v(%zu) = %.6g\n", n, op.v[n]);
  for (std::size_t k = 0; k < nl.vsources().size(); ++k)
    std::printf("  i(V%zu) = %.6g\n", k, op.vsourceCurrent(k));

  if (!acNode.empty()) {
    const sim::NodeId out = nl.findNode(acNode);
    if (out < 0) {
      std::fprintf(stderr, "unknown AC node %s\n", acNode.c_str());
      return 1;
    }
    const sim::AcSolver ac(nl, op);
    std::printf("* AC sweep at node %s\n  %-12s %-12s %-10s\n", acNode.c_str(),
                "freq", "mag_db", "phase_deg");
    const auto freqs = sim::AcSolver::logSpace(1.0, 10e9, 41);
    const auto h = ac.sweep(freqs, out);
    const auto phase = sim::unwrappedPhaseDeg(h);
    for (std::size_t i = 0; i < freqs.size(); ++i)
      std::printf("  %-12.4g %-12.3f %-10.2f\n", freqs[i],
                  sim::magnitudeDb(h[i]), phase[i]);
  }

  if (!noiseNode.empty()) {
    const sim::NodeId out = nl.findNode(noiseNode);
    if (out < 0) {
      std::fprintf(stderr, "unknown noise node %s\n", noiseNode.c_str());
      return 1;
    }
    const sim::NoiseAnalyzer noise(nl, op);
    const auto freqs = sim::AcSolver::logSpace(10.0, 1e9, 17);
    const auto r = noise.outputNoise(freqs, out);
    std::printf("* output noise at node %s\n  %-12s %-14s\n", noiseNode.c_str(),
                "freq", "psd [V^2/Hz]");
    for (std::size_t i = 0; i < freqs.size(); ++i)
      std::printf("  %-12.4g %-14.4g\n", freqs[i], r.outputPsd[i]);
    std::printf("  integrated rms over band: %.4g V\n", r.integratedRms);
  }
  return 0;
}
