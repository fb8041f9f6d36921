#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span. Names are string literals (static lifetime) and
/// reuse the engine's EXPLAIN ANALYZE names where a span wraps the same
/// step: parse, bind, input, optimise, ops, swap/merge/absorb/select/
/// aggregate/rename, then aggregate/enumerate.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;    ///< index into the same tracer, -1 for a root
  int64_t stmt = -1;  ///< statement id, -1 outside statements
  int cls = -1;       ///< statement class index, -1 outside statements
  int thread = 0;
};

/// Spans of one thread, kept in memory until the run ends. A null
/// Tracer* means tracing is off; SpanScope then does nothing.
class Tracer {
 public:
  explicit Tracer(int thread = 0) : thread_(thread) {}

  /// Opens a span as a child of the innermost open span.
  int Begin(const char* name);
  void End(int id);
  /// Records a finished child of the innermost open span.
  int AddComplete(const char* name, int64_t start_ns, int64_t end_ns);

  /// Sets the statement id and class that new spans carry.
  void SetStatement(int64_t stmt, int cls) {
    stmt_ = stmt;
    cls_ = cls;
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Moves `other`'s spans in, re-basing their parent indexes.
  void Absorb(Tracer&& other);

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int64_t stmt_ = -1;
  int cls_ = -1;
  int thread_;
};

class SpanScope {
 public:
  SpanScope(Tracer* t, const char* name)
      : t_(t), id_(t != nullptr ? t->Begin(name) : -1) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Self and inclusive time of the spans sharing one path key
/// ("statement/ops/swap"), over the statements of one class or all.
struct LayerTime {
  int64_t self_ns = 0;
  int64_t incl_ns = 0;
  int64_t count = 0;
};

/// Per-path totals over every span tree rooted at a span named `root`.
/// A span's self time is its duration minus the union of its children's
/// intervals, so the self times of a tree sum to its root's duration.
/// `cls` = -1 takes every class.
std::map<std::string, LayerTime> Ledger(const std::vector<Span>& spans,
                                        const char* root, int cls);

/// Writes the spans in the Chrome trace-event format (load it in
/// chrome://tracing or Perfetto); `classes` names the class indexes.
void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::vector<std::string>& classes);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
