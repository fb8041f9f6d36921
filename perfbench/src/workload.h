#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fdb/engine/database.h"
#include "fdb/relational/relation.h"
#include "measure.h"
#include "pipeline.h"
#include "spec.h"
#include "trace.h"

namespace perfbench {

struct RunContext {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 1;
  bool trace = false;
  std::string work_dir;    ///< scratch space for snapshots and WALs
  std::string trace_path;  ///< where a traced run writes its spans
};

struct RunOutput {
  std::vector<Metric> end_to_end;  ///< printed by an untraced run
  std::vector<Metric> per_layer;   ///< printed by a traced run
  int64_t attempted = 0;           ///< statements attempted, checks included
  int64_t failed = 0;              ///< errors, refusals, wrong or lost results
  /// Extra run-record fields: key → JSON value.
  std::vector<std::pair<std::string, std::string>> record;
};

RunOutput RunInProcess(const RunContext& ctx);
RunOutput RunServed(const RunContext& ctx);

// --- shared by both runners -------------------------------------------------

/// Builds the workload's database from the seed: the §6 relations, view
/// R1 over T, the views in spec.views ("R3": Orders by date, customer,
/// package; "R1flat": R1's flat join as a relation, as fdb_server's demo
/// database has it) and the small updatable view KV(k, v) that writes go
/// to. Spans: "generate" around GenerateWorkload, "build" around each
/// factorisation built.
fdb::Database BuildDatabase(const WorkloadSpec& spec, uint64_t seed,
                            Tracer* tr);

/// Publishes view KV(k, v) with the 16 rows (x, x*x) of fdb_server's demo
/// database, replacing any earlier version.
void ResetKv(fdb::Database* db);

/// Timed segments per untraced run (see Segment).
constexpr int kSegments = 10;
/// Reads each timed segment needs at least: a segment runs past its share
/// of the time, up to three times it, until it has them.
constexpr int kMinReadsPerSegment = 1000;
/// Autocommit INSERTs per untraced run, in kSegments equal parts.
constexpr int kInsertsPerRun = 10000;

/// The reference result of one read class.
struct Reference {
  Digest digest;
  std::vector<int> order_cols;  ///< output columns named in ORDER BY
};

/// The correctness oracle, run before timing: every read class once on
/// FdbEngine over `db` and once on RdbEngine over flat inputs (R1flat,
/// the join of Orders, Packages and Items; R2flat, its rows sorted;
/// Orders), added to a copy of `db`. Checks equal bags and equal
/// sequences of order-by keys; under LIMIT, rows that tie with the last
/// row on every order-by key may legitimately differ and are compared by
/// key only. Returns the FdbEngine digests the timed results are checked
/// against; adds one failure per mismatching class to *failed.
std::vector<Reference> RunOracle(fdb::Database* db, const WorkloadSpec& spec,
                                 int64_t* failed);

Digest DigestOf(const fdb::Relation& r, const Reference& ref);

/// Wire-encodes a result with the public codec (EncodeSchema, then
/// EncodeRow per row); returns the bytes produced.
int64_t EncodeResult(const fdb::Relation& r, const fdb::AttributeRegistry& reg);

/// The row written by the i-th INSERT of a run: a fresh key outside the
/// demo rows 0..15 and a value derived from the key and the seed.
fdb::Tuple WriteRow(int64_t i, uint64_t seed);

/// The INSERT statement of a write class for `row`.
std::string InsertSql(const StmtClass& sc, const fdb::Tuple& row);

/// How many acknowledged rows the (k, v) view rows lack.
int64_t MissingRows(const std::vector<std::vector<fdb::Value>>& view_rows,
                    const std::vector<fdb::Tuple>& acked);

/// Per-layer metrics from the in-process traced statements under roots
/// named `root`: query.*, optimizer.*, core.* (build_ms excepted). The
/// per-class counts come from the caller: rows returned, plan size and
/// singletons of the input / enumerated factorisations, summed over the
/// traced statements of the read classes.
struct CoreCounts {
  int64_t statements = 0;
  int64_t rows = 0;
  int64_t plan_ops = 0;
  double input_singletons = 0;
  double enumerated_singletons = 0;
};
/// Sums CoreCounts over traced reads. Singletons are counted on the first
/// statement of each class only (the read views do not change during a
/// run), outside every span.
class CoreCounter {
 public:
  explicit CoreCounter(size_t classes)
      : input_(classes, -1), enumerated_(classes, -1) {}
  /// Whether class c still needs its singletons counted: pass this as
  /// TracedExecuteSql's keep_enumerated.
  bool First(int c) const { return input_[static_cast<size_t>(c)] < 0; }
  void Add(fdb::Database* db, int c, const fdb::Relation& res,
           const PipelineInfo& info);
  const CoreCounts& counts() const { return counts_; }

 private:
  std::vector<double> input_, enumerated_;
  CoreCounts counts_;
};

void AddCoreLayerMetrics(const std::vector<Span>& spans, const char* root,
                         const std::vector<int>& read_classes,
                         const CoreCounts& counts, std::vector<Metric>* out);

/// Prints the blocking-path ledger of the roots named `root`: each
/// layer's mean self time per statement and its share of the statement
/// time; the root's own self time is the unattributed remainder.
void PrintLedger(const std::vector<Span>& spans, const char* root,
                 const WorkloadSpec& spec, const std::vector<int>& classes);

std::vector<int> ReadClasses(const WorkloadSpec& spec);
std::vector<int> AllClasses(const WorkloadSpec& spec);
std::vector<std::string> ClassNames(const WorkloadSpec& spec);

/// The end-to-end metrics of an untraced run, with their sample counts
/// and the class each percentile lands in (over the pooled samples); the
/// per-segment values and counts also go into the run record.
/// One timed segment of a run. A run measures several, and each
/// end-to-end metric is the median of its per-segment values, so that a
/// burst of noise moves one segment, not the result.
struct Segment {
  double qps = 0;
  Samples reads;
  double rss_mb = 0;
};

/// `writes` holds the INSERT latencies of each of the run's write parts,
/// which all start from the same state (a fresh KV or a fresh server); a
/// write percentile is the median of the parts' percentiles.
void AddEndToEnd(const WorkloadSpec& spec, const std::vector<double>& setup_s,
                 const std::vector<Segment>& segments,
                 const std::vector<Samples>& writes, RunOutput* out);

/// core.build_ms: the "build" spans of the traced set-ups, per set-up.
void AddBuildMetric(const std::vector<Span>& setup_spans, int setups,
                    std::vector<Metric>* out);

/// serve.encode_us and serve.bytes_per_row: each read class's result
/// (from `execute`) wire-encoded in process, weighted by the mix.
void AddEncodeMetrics(
    const fdb::AttributeRegistry& reg, const WorkloadSpec& spec,
    const std::function<fdb::Relation(const std::string&)>& execute,
    std::vector<Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
