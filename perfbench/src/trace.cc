#include "trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "measure.h"

namespace perfbench {

int Tracer::Begin(const char* name) {
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  s.parent = open_.empty() ? -1 : open_.back();
  s.stmt = stmt_;
  s.cls = cls_;
  s.thread = thread_;
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer: spans must end innermost first");
  }
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

int Tracer::AddComplete(const char* name, int64_t start_ns, int64_t end_ns) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  s.stmt = stmt_;
  s.cls = cls_;
  s.thread = thread_;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Absorb(Tracer&& other) {
  int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
  other.spans_.clear();
}

std::map<std::string, LayerTime> Ledger(const std::vector<Span>& spans,
                                        const char* root, int cls) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, LayerTime> out;
  // Depth-first over each matching root, carrying the path key.
  std::vector<std::pair<int, std::string>> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0 || std::string(s.name) != root) continue;
    if (cls >= 0 && s.cls != cls) continue;
    stack.emplace_back(static_cast<int>(i), s.name);
    while (!stack.empty()) {
      auto [id, key] = stack.back();
      stack.pop_back();
      const Span& sp = spans[static_cast<size_t>(id)];
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<int64_t, int64_t>> iv;
      for (int c : children[static_cast<size_t>(id)]) {
        const Span& ch = spans[static_cast<size_t>(c)];
        iv.emplace_back(std::max(ch.start_ns, sp.start_ns),
                        std::min(ch.end_ns, sp.end_ns));
        stack.emplace_back(c, key + "/" + ch.name);
      }
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0, reach = sp.start_ns;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, reach);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
      LayerTime& lt = out[key];
      lt.incl_ns += sp.end_ns - sp.start_ns;
      lt.self_ns += sp.end_ns - sp.start_ns - covered;
      lt.count += 1;
    }
  }
  return out;
}

void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<std::string>& classes) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace " + path);
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  f << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::string cls = s.cls >= 0 && static_cast<size_t>(s.cls) < classes.size()
                          ? classes[static_cast<size_t>(s.cls)]
                          : "";
    f << (i ? ",\n" : "") << "{\"name\":" << JsonString(s.name)
      << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
      << ",\"ts\":" << JsonNumber(static_cast<double>(s.start_ns - t0) / 1e3)
      << ",\"dur\":"
      << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
      << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
      << ",\"stmt\":" << s.stmt << ",\"class\":" << JsonString(cls) << "}}";
  }
  f << "\n]}\n";
}

}  // namespace perfbench
