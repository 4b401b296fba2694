#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace e2e {

std::int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::map<std::string, double> selfSecondsByLayer(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.startNs, s.endNs);

  std::map<std::string, double> self;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t runStart = 0, runEnd = -1;
      for (const auto& [b0, e0] : iv) {
        const std::int64_t b = std::max(b0, s.startNs);
        const std::int64_t e = std::min(e0, s.endNs);
        if (e <= b) continue;
        if (runEnd < b) {
          if (runEnd > runStart) covered += runEnd - runStart;
          runStart = b;
          runEnd = e;
        } else {
          runEnd = std::max(runEnd, e);
        }
      }
      if (runEnd > runStart) covered += runEnd - runStart;
    }
    self[s.layer] += static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
  }
  return self;
}

namespace {

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

void writeChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::int64_t t0 = 0;
  if (!spans.empty())
    t0 = std::min_element(spans.begin(), spans.end(),
                          [](const Span& a, const Span& b) {
                            return a.startNs < b.startNs;
                          })->startNs;
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << jsonEscape(s.name)
        << "\",\"cat\":\"" << jsonEscape(s.layer) << "\",\"ph\":\"X\",\"ts\":"
        << static_cast<double>(s.startNs - t0) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) * 1e-3
        << ",\"pid\":" << s.pid << ",\"tid\":" << s.tid
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  out.flush();
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace e2e
