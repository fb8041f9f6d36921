// The in-process workloads (agg, ord): one caller thread drives the
// library directly, with its defaults (metrics and tracing off, the
// TaskPool at hardware_concurrency threads). The timed segments run the
// read mix alone; the write metrics come from separate rounds of
// autocommit INSERTs between them, so that the read numbers are those of
// a pure aggregation or ordering workload: a steady stream of autocommit
// writes grows the process's memory and slows later statements, so
// interleaved writes would make the read numbers depend on run length.

#include <malloc.h>

#include <cstdio>
#include <optional>
#include <set>

#include "fdb/engine/fdb_engine.h"
#include "fdb/exec/task_pool.h"
#include "pipeline.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace fdb;

struct Phase {
  Samples reads;
  int64_t statements = 0, failed = 0;
  double wall_s = 0, cpu_s = 0;
  double qps() const { return static_cast<double>(reads.size()) / wall_s; }
};

void Fail(int64_t* failed, const StmtClass& sc, const std::string& why) {
  ++*failed;
  if (*failed <= 3) std::printf("FAILED %s: %s\n", sc.name.c_str(), why.c_str());
}

class ReadLoop {
 public:
  ReadLoop(const RunContext& ctx, Database* db,
           const std::vector<Reference>& refs)
      : ctx_(ctx), db_(db), refs_(refs), counter_(ctx.spec.classes.size()) {
    for (int c : Schedule(ctx.spec)) {
      if (!ctx.spec.classes[static_cast<size_t>(c)].write) sched_.push_back(c);
    }
  }

  /// Runs the read mix from the start of its round robin for `seconds`
  /// (with `enforce_min`, also until kMinReadsPerSegment reads, capped at
  /// three times the duration).
  Phase Run(double seconds, Tracer* tr, bool enforce_min) {
    Phase ph;
    FdbEngine engine(db_);
    size_t min = enforce_min ? static_cast<size_t>(kMinReadsPerSegment) : 0;
    int64_t start = NowNs();
    int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    int64_t cap = start + static_cast<int64_t>(3 * seconds * 1e9);
    double cpu0 = CpuSeconds(0);
    for (size_t i = 0;; ++i) {
      int64_t now = NowNs();
      if ((now >= deadline && ph.reads.size() >= min) || now >= cap) break;
      int c = sched_[i % sched_.size()];
      const StmtClass& sc = ctx_.spec.classes[static_cast<size_t>(c)];
      ++ph.statements;
      if (tr != nullptr) tr->SetStatement(next_stmt_, c);
      ++next_stmt_;
      Relation res;
      PipelineInfo info;
      int64_t t0 = NowNs();
      try {
        if (tr != nullptr) {
          SpanScope root(tr, "statement");
          res = TracedExecuteSql(db_, sc.sql, tr, &info, counter_.First(c));
        } else {
          res = engine.ExecuteSql(sc.sql).flat;
        }
      } catch (const std::exception& e) {
        Fail(&ph.failed, sc, e.what());
        continue;
      }
      double ms = static_cast<double>(NowNs() - t0) / 1e6;
      const Reference& ref = refs_[static_cast<size_t>(c)];
      if (!(DigestOf(res, ref) == ref.digest)) {
        Fail(&ph.failed, sc, "result differs from the reference");
        continue;
      }
      ph.reads.Add(ms, c);
      if (tr != nullptr) counter_.Add(db_, c, res, info);
    }
    ph.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    ph.cpu_s = CpuSeconds(0) - cpu0;
    return ph;
  }

  const CoreCounts& counts() const { return counter_.counts(); }

 private:
  const RunContext& ctx_;
  Database* db_;
  const std::vector<Reference>& refs_;
  std::vector<int> sched_;
  CoreCounter counter_;
  int64_t next_stmt_ = 0;
};

/// Visibility bookkeeping over a run's write rounds.
struct WriteCheck {
  int64_t seq = 0;  ///< rows written so far (WriteRow's index)
  int64_t acked = 0, missing = 0;
};

/// One write round: kInsertsPerRun / kSegments autocommit INSERTs per write
/// class into a fresh KV, so that every round does the same work; then
/// every acknowledged row must be visible. The grown KV is dropped at the
/// end, so that the memory its versions hold does not count in the next
/// read segment's rss_peak_mb. Adds to *attempted and *failed.
Samples WriteRound(const RunContext& ctx, Database* db, WriteCheck* check,
                   int64_t* attempted, int64_t* failed) {
  Samples lat;
  ResetKv(db);
  for (size_t c = 0; c < ctx.spec.classes.size(); ++c) {
    const StmtClass& sc = ctx.spec.classes[c];
    if (!sc.write) continue;
    std::vector<Tuple> acked;
    for (int i = 0; i < kInsertsPerRun / kSegments; ++i) {
      Tuple row = WriteRow(check->seq++, ctx.seed);
      ++*attempted;
      int64_t t0 = NowNs();
      try {
        db->Insert(sc.sql, row);
      } catch (const std::exception& e) {
        Fail(failed, sc, e.what());
        continue;
      }
      lat.Add(static_cast<double>(NowNs() - t0) / 1e6, static_cast<int>(c));
      acked.push_back(std::move(row));
    }
    Relation kv = FdbEngine(db).ExecuteSql("SELECT k, v FROM " + sc.sql).flat;
    int64_t missing = MissingRows(kv.rows(), acked);
    *failed += missing;
    check->missing += missing;
    check->acked += static_cast<int64_t>(acked.size());
  }
  ResetKv(db);
  return lat;
}

}  // namespace

RunOutput RunInProcess(const RunContext& ctx) {
  const WorkloadSpec& spec = ctx.spec;
  RunOutput out;
  Tracer setup_tr;
  std::vector<double> setup_s;
  std::optional<Database> db;
  for (int i = 0; i < spec.setup_reps; ++i) {
    db.reset();
    int64_t t0 = NowNs();
    db.emplace(BuildDatabase(spec, ctx.seed, ctx.trace ? &setup_tr : nullptr));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::vector<Reference> refs = RunOracle(&*db, spec, &out.failed);
  out.attempted += static_cast<int64_t>(ReadClasses(spec).size());

  ReadLoop loop(ctx, &*db, refs);
  if (!ctx.trace) {
    // Each read segment is followed by a write round, so that a burst of
    // noise on the host hits one part of either, not all of it.
    std::vector<Segment> segments;
    std::vector<Samples> writes;
    WriteCheck check;
    double cpu = 0, wall = 0;
    for (int i = 0; i < kSegments; ++i) {
      malloc_trim(0);
      ResetPeakRss(0);
      Phase ph = loop.Run(ctx.seconds / kSegments, nullptr, /*enforce_min=*/true);
      segments.push_back({ph.qps(), ph.reads, PeakRssMb(0)});
      out.attempted += ph.statements;
      out.failed += ph.failed;
      cpu += ph.cpu_s;
      wall += ph.wall_s;
      writes.push_back(
          WriteRound(ctx, &*db, &check, &out.attempted, &out.failed));
    }
    std::printf("visibility: %lld of %lld acknowledged inserts missing\n",
                static_cast<long long>(check.missing),
                static_cast<long long>(check.acked));
    AddEndToEnd(spec, setup_s, segments, writes, &out);
    out.record.push_back({"cpu_util", JsonNumber(cpu / wall)});
    return out;
  }

  // Traced run: the first half untraced (the baseline of the tracing
  // overhead and of CPU use), the second half through the traced replica.
  Phase base = loop.Run(ctx.seconds / 2, nullptr, false);
  Tracer tr;
  Phase traced = loop.Run(ctx.seconds / 2, &tr, false);
  out.attempted += base.statements + traced.statements;
  out.failed += base.failed + traced.failed;

  std::vector<int> reads = ReadClasses(spec);
  PrintLedger(tr.spans(), "statement", spec, reads);
  AddCoreLayerMetrics(tr.spans(), "statement", reads, loop.counts(),
                      &out.per_layer);
  AddBuildMetric(setup_tr.spans(), spec.setup_reps, &out.per_layer);
  out.per_layer.push_back({"exec.cpu_util", base.cpu_s / base.wall_s, "ratio",
                           "CPU s / wall s, untraced half"});
  out.per_layer.push_back(
      {"exec.threads",
       static_cast<double>(exec::TaskPool::Default().num_threads()), "count",
       "TaskPool threads"});
  const char* no_server = "0: in-process workload, no server";
  for (const char* m : {"serve.queue_wait_us", "serve.server_us",
                        "serve.wire_us", "serve.first_row_us"}) {
    out.per_layer.push_back({m, 0, "us", no_server});
  }
  AddEncodeMetrics(db->registry(), spec, [&](const std::string& sql) {
    return FdbEngine(&*db).ExecuteSql(sql).flat;
  }, &out.per_layer);
  out.per_layer.push_back({"serve.mem_charged_kb", 0, "KiB", no_server});
  const char* no_storage = "0: in-process workload, no snapshot or WAL";
  out.per_layer.push_back({"storage.open_ms", 0, "ms", no_storage});
  out.per_layer.push_back({"storage.wal_commit_us", 0, "us", no_storage});
  out.per_layer.push_back({"storage.wal_bytes_per_write", 0, "bytes",
                           no_storage});
  out.per_layer.push_back({"trace.overhead_frac",
                           base.qps() / traced.qps() - 1, "ratio",
                           "untraced qps / traced qps - 1"});
  WriteChromeTrace(ctx.trace_path, tr.spans(), ClassNames(spec));
  return out;
}

}  // namespace perfbench
