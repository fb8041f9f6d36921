#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fdb/relational/value.h"

namespace perfbench {

/// steady_clock in nanoseconds.
int64_t NowNs();

/// Latency samples tagged with the statement class that produced them.
class Samples {
 public:
  void Add(double value, int cls) { v_.emplace_back(value, cls); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }

  /// The samples split by class.
  std::map<int, Samples> ByClass() const;

  /// Nearest-rank quantile, q in (0, 1]. 0 when empty.
  double Quantile(double q) const;

  /// The class of the sample at quantile q, and the share of each class
  /// among the ranks within 1% of n around it: a single class at 100%
  /// means the percentile sits well inside it, not on a boundary.
  std::pair<int, std::map<int, double>> LandsIn(double q) const;

 private:
  void Sort() const;
  mutable std::vector<std::pair<double, int>> v_;
  mutable bool sorted_ = false;
};

/// The highest of p50, p90, p99, p99.9 that n samples support with at
/// least ten samples beyond it ("none" below 20 samples).
std::string HighestSupported(size_t n);

/// Row count plus order-independent and order-dependent hashes of a
/// result: `bag` sums a mixed hash of every row; `order` folds the
/// order-by key columns in row order (constant when there are none).
struct Digest {
  int64_t rows = 0;
  uint64_t bag = 0;
  uint64_t order = 0;
  bool operator==(const Digest& o) const = default;
};

Digest DigestRows(const std::vector<std::vector<fdb::Value>>& rows,
                  const std::vector<int>& order_cols);

// --- process counters (pid 0 = this process) -------------------------------

/// Resets the peak-RSS high-water mark (writes 5 to /proc/<pid>/clear_refs).
void ResetPeakRss(int pid);
/// VmHWM in MiB.
double PeakRssMb(int pid);
/// User + system CPU seconds.
double CpuSeconds(int pid);

double Median(std::vector<double> v);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count, landing class, or why it is 0
};

/// Minimal JSON string escaping.
std::string JsonString(const std::string& s);
/// A number with all its digits (never in exponent-free truncated form).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
