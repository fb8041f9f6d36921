#include "measure.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string ProcPath(int pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
}

std::map<int, Samples> Samples::ByClass() const {
  std::map<int, Samples> out;
  for (const auto& [v, c] : v_) out[c].Add(v, c);
  return out;
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  Sort();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v_.size())));
  if (rank < 1) rank = 1;
  return v_[std::min(rank, v_.size()) - 1].first;
}

std::pair<int, std::map<int, double>> Samples::LandsIn(double q) const {
  std::map<int, double> window;
  if (v_.empty()) return {-1, window};
  Sort();
  size_t n = v_.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  size_t at = std::min(std::max<size_t>(rank, 1), n) - 1;
  size_t half = std::max<size_t>(n / 100, 1);
  size_t lo = at >= half ? at - half : 0;
  size_t hi = std::min(n - 1, at + half);
  for (size_t i = lo; i <= hi; ++i) {
    window[v_[i].second] += 1.0 / static_cast<double>(hi - lo + 1);
  }
  return {v_[at].second, window};
}

std::string HighestSupported(size_t n) {
  const std::pair<double, const char*> levels[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}, {0.5, "p50"}};
  for (const auto& [q, label] : levels) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return label;
  }
  return "none";
}

Digest DigestRows(const std::vector<std::vector<fdb::Value>>& rows,
                  const std::vector<int>& order_cols) {
  Digest d;
  d.rows = static_cast<int64_t>(rows.size());
  uint64_t order = 0xcbf29ce484222325ull;
  for (const std::vector<fdb::Value>& row : rows) {
    uint64_t h = 0x84222325cbf29ce4ull;
    for (const fdb::Value& v : row) h = Mix(h ^ static_cast<uint64_t>(v.Hash()));
    d.bag += Mix(h);
    for (int c : order_cols) {
      order = Mix(order ^ static_cast<uint64_t>(row[static_cast<size_t>(c)].Hash()));
    }
  }
  d.order = order;
  return d;
}

void ResetPeakRss(int pid) {
  std::ofstream f(ProcPath(pid, "clear_refs"));
  f << "5";
}

double PeakRssMb(int pid) {
  std::ifstream f(ProcPath(pid, "status"));
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double CpuSeconds(int pid) {
  std::ifstream f(ProcPath(pid, "stat"));
  std::string stat((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream ss(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && ss >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
