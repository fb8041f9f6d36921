#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>
#include <set>

#include "fdb/core/build.h"
#include "fdb/engine/fdb_engine.h"
#include "fdb/engine/rdb_engine.h"
#include "fdb/query/binder.h"
#include "fdb/query/parser.h"
#include "fdb/relational/rdb_ops.h"
#include "fdb/serve/wire.h"
#include "fdb/workload/generator.h"

namespace perfbench {
namespace {

using namespace fdb;

bool Has(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

bool SameKey(const Tuple& a, const Tuple& b, const std::vector<int>& cols) {
  for (int c : cols) {
    if (!(a[static_cast<size_t>(c)] == b[static_cast<size_t>(c)])) return false;
  }
  return true;
}

// See RunOracle for the rule on LIMIT ties.
bool SameResult(const Relation& f, const Relation& r,
                const std::vector<int>& order_cols, bool limited) {
  if (f.schema().arity() != r.schema().arity() || f.size() != r.size()) {
    return false;
  }
  const std::vector<Tuple>& fr = f.rows();
  const std::vector<Tuple>& rr = r.rows();
  for (size_t i = 0; i < fr.size(); ++i) {
    if (!SameKey(fr[i], rr[i], order_cols)) return false;
  }
  if (limited && order_cols.empty()) return true;  // any rows are valid
  std::vector<Tuple> a, b;
  for (size_t i = 0; i < fr.size(); ++i) {
    bool tie = limited && SameKey(fr[i], fr.back(), order_cols);
    if (!tie) {
      a.push_back(fr[i]);
      b.push_back(rr[i]);
    }
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!(a[i][j] == b[i][j])) return false;
    }
  }
  return true;
}

}  // namespace

Database BuildDatabase(const WorkloadSpec& spec, uint64_t seed, Tracer* tr) {
  Database db;
  WorkloadParams p = SmallParams(spec.scale);
  p.seed = seed;
  Workload w;
  {
    SpanScope s(tr, "generate");
    w = GenerateWorkload(&db, p);
  }
  Factorisation r1;
  {
    SpanScope s(tr, "build");
    r1 = FactoriseJoin(w.ftree, {&w.orders, &w.packages, &w.items});
  }
  std::optional<Factorisation> r3;
  if (Has(spec.views, "R3")) {
    AttributeRegistry& reg = db.registry();
    SpanScope s(tr, "build");
    r3 = FactoriseRelation(w.orders, {*reg.Find("date"), *reg.Find("customer"),
                                      *reg.Find("package")});
  }
  db.AddRelation("Orders", std::move(w.orders));
  db.AddRelation("Packages", std::move(w.packages));
  db.AddRelation("Items", std::move(w.items));
  db.AddView("R1", std::move(r1));
  if (r3.has_value()) db.AddView("R3", std::move(*r3));
  if (Has(spec.views, "R1flat")) {
    SpanScope s(tr, "flatten");
    db.AddRelation("R1flat", db.view("R1")->Flatten());
  }
  ResetKv(&db);
  return db;
}

void ResetKv(Database* db) {
  AttrId ka = db->Attr("k"), va = db->Attr("v");
  Relation kv{RelSchema({ka, va})};
  for (int64_t x = 0; x < 16; ++x) kv.Add({Value(x), Value(x * x)});
  db->AddView("KV", FactoriseRelation(kv, {ka, va}));
}

std::vector<Reference> RunOracle(Database* db, const WorkloadSpec& spec,
                                 int64_t* failed) {
  // The flat inputs come from the base relations, not from R1, so that a
  // defect in building R1 cannot reach both sides of the comparison. This
  // replaces a flattened R1flat the database may have (serve_mix's).
  Database flat = *db;  // shares the views' arenas; adds flat inputs only
  flat.AddRelation("R1flat", NaturalJoinAll({db->relation("Orders"),
                                             db->relation("Packages"),
                                             db->relation("Items")}));
  bool want_r2 = false;
  for (const StmtClass& c : spec.classes) {
    want_r2 |= c.oracle_sql.find("R2flat") != std::string::npos;
  }
  if (want_r2) {
    // R1's rows pre-sorted by (package, date, item), the paper's R2.
    Relation r2 = *flat.relation("R1flat");
    AttributeRegistry& reg = flat.registry();
    std::vector<SortKey> keys;
    for (const char* a : {"package", "date", "item", "customer", "price"}) {
      keys.push_back({*reg.Find(a), SortDir::kAsc});
    }
    r2.SortBy(keys);
    flat.AddRelation("R2flat", std::move(r2));
  }
  FdbEngine fe(db);
  RdbEngine re(&flat);
  std::vector<Reference> refs(spec.classes.size());
  for (size_t i = 0; i < spec.classes.size(); ++i) {
    const StmtClass& c = spec.classes[i];
    if (c.write) continue;
    BoundQuery q = Bind(ParseSql(c.sql), db);
    for (const SortKey& k : q.order_by) {
      for (size_t j = 0; j < q.outputs.size(); ++j) {
        if (q.outputs[j].attr == k.attr) {
          refs[i].order_cols.push_back(static_cast<int>(j));
        }
      }
    }
    Relation f = fe.ExecuteSql(c.sql).flat;
    Relation r = re.ExecuteSql(c.oracle_sql).flat;
    // A view may list its columns in another order than the flat input
    // (R3 against Orders); compare column by column name.
    std::vector<AttrId> by_name;
    for (AttrId a : f.schema().attrs()) {
      std::optional<AttrId> id = flat.registry().Find(db->registry().Name(a));
      if (id.has_value()) by_name.push_back(*id);
    }
    if (by_name.size() == f.schema().attrs().size()) {
      r = Project(r, by_name, /*dedup=*/false);
    }
    bool ok = SameResult(f, r, refs[i].order_cols, q.limit.has_value());
    if (!ok) ++*failed;
    refs[i].digest = DigestOf(f, refs[i]);
    std::printf("oracle %-12s fdb %8lld rows, rdb %8lld rows: %s\n",
                c.name.c_str(), static_cast<long long>(f.size()),
                static_cast<long long>(r.size()), ok ? "match" : "MISMATCH");
  }
  return refs;
}

Digest DigestOf(const Relation& r, const Reference& ref) {
  return DigestRows(r.rows(), ref.order_cols);
}

int64_t EncodeResult(const Relation& r, const AttributeRegistry& reg) {
  constexpr int64_t kFrameHeader = 5;
  std::vector<std::string> cols;
  for (AttrId a : r.schema().attrs()) cols.push_back(reg.Name(a));
  int64_t bytes =
      static_cast<int64_t>(serve::EncodeSchema(cols).size()) + kFrameHeader;
  for (const Tuple& row : r.rows()) {
    bytes += static_cast<int64_t>(serve::EncodeRow(row).size()) + kFrameHeader;
  }
  return bytes;
}

Tuple WriteRow(int64_t i, uint64_t seed) {
  int64_t k = 1'000'000 + i;
  return {Value(k), Value((k * 31 + static_cast<int64_t>(seed % 1000)) % 1'000'003)};
}

std::string InsertSql(const StmtClass& sc, const Tuple& row) {
  return "INSERT INTO " + sc.sql + " VALUES (" + row[0].ToString() + ", " +
         row[1].ToString() + ")";
}

int64_t MissingRows(const std::vector<std::vector<Value>>& view_rows,
                    const std::vector<Tuple>& acked) {
  std::set<std::pair<int64_t, int64_t>> present;
  for (const std::vector<Value>& r : view_rows) {
    present.emplace(r[0].as_int(), r[1].as_int());
  }
  int64_t missing = 0;
  for (const Tuple& t : acked) {
    missing += present.count({t[0].as_int(), t[1].as_int()}) ? 0 : 1;
  }
  return missing;
}

void CoreCounter::Add(Database* db, int c, const Relation& res,
                      const PipelineInfo& info) {
  size_t ci = static_cast<size_t>(c);
  if (input_[ci] < 0) {
    input_[ci] = static_cast<double>(db->ViewSnapshot(info.view)->CountSingletons());
    enumerated_[ci] = static_cast<double>(info.enumerated->CountSingletons());
  }
  counts_.statements += 1;
  counts_.rows += res.size();
  counts_.plan_ops += info.plan_ops;
  counts_.input_singletons += input_[ci];
  counts_.enumerated_singletons += enumerated_[ci];
}

void AddCoreLayerMetrics(const std::vector<Span>& spans, const char* root,
                         const std::vector<int>& read_classes,
                         const CoreCounts& counts, std::vector<Metric>* out) {
  std::map<std::string, LayerTime> total;
  for (int c : read_classes) {
    for (const auto& [key, lt] : Ledger(spans, root, c)) {
      LayerTime& t = total[key];
      t.self_ns += lt.self_ns;
      t.incl_ns += lt.incl_ns;
      t.count += lt.count;
    }
  }
  std::string r = root;
  double n = static_cast<double>(std::max<int64_t>(counts.statements, 1));
  auto incl_us = [&](const std::string& key) {
    auto it = total.find(r + "/" + key);
    return it == total.end() ? 0.0 : static_cast<double>(it->second.incl_ns) / 1e3 / n;
  };
  double enum_us = incl_us("aggregate") + incl_us("enumerate");
  double rows = static_cast<double>(std::max<int64_t>(counts.rows, 1));
  out->push_back({"query.parse_us", incl_us("parse"), "us", "mean per read"});
  out->push_back({"query.bind_us", incl_us("bind"), "us", "mean per read"});
  out->push_back({"optimizer.optimise_us", incl_us("optimise"), "us",
                  "greedy planner, mean per read"});
  out->push_back({"optimizer.plan_ops",
                  static_cast<double>(counts.plan_ops) / n, "count",
                  "f-plan operators per read"});
  out->push_back({"core.ops_us", incl_us("ops"), "us", "mean per read"});
  out->push_back({"core.ops.aggregate_us", incl_us("ops/aggregate"), "us",
                  "mean per read"});
  out->push_back({"core.ops.swap_us", incl_us("ops/swap"), "us",
                  "mean per read"});
  // Printed, but not in BENCHMARK.json: no workload statement has a
  // selection or reads more than one relation, so these stay 0.
  for (const char* op : {"merge", "absorb", "select"}) {
    out->push_back({std::string("core.ops.") + op + "_us", incl_us(std::string("ops/") + op),
                    "us", "mean per read; not a benchmark metric: no workload "
                    "statement runs this operator"});
  }
  out->push_back({"core.enumerate_us", enum_us, "us",
                  "aggregate or enumerate phase, mean per read"});
  out->push_back({"core.enumerate_ns_per_row", enum_us * 1e3 * n / rows, "ns",
                  "enumeration time / rows returned"});
  out->push_back({"core.rows_out", static_cast<double>(counts.rows) / n,
                  "count", "rows per read"});
  out->push_back({"core.input_singletons", counts.input_singletons / n,
                  "count", "singletons of the queried view, per read"});
  out->push_back({"core.singletons_per_row",
                  counts.enumerated_singletons / rows, "count",
                  "singletons of the factorisation enumeration reads / rows "
                  "returned"});
}

void PrintLedger(const std::vector<Span>& spans, const char* root,
                 const WorkloadSpec& spec, const std::vector<int>& classes) {
  static const char* const kOrder[] = {
      "parse",       "bind",     "input",         "optimise",   "ops",
      "ops/swap",    "ops/merge", "ops/absorb",   "ops/select", "ops/aggregate",
      "ops/rename",  "aggregate", "enumerate",    "queue_wait", "server",
      "insert"};
  auto rank = [](const std::string& key) {
    for (size_t i = 0; i < std::size(kOrder); ++i) {
      if (key == kOrder[i]) return i;
    }
    return std::size(kOrder);
  };
  std::string r = root;
  auto print = [&](const std::string& label,
                   const std::map<std::string, LayerTime>& led) {
    auto it = led.find(r);
    if (it == led.end() || it->second.count == 0) return;
    double stmt_ns = static_cast<double>(it->second.incl_ns);
    std::vector<std::pair<std::string, int64_t>> layers;
    int64_t self_sum = it->second.self_ns;
    for (const auto& [key, lt] : led) {
      if (key == r) continue;
      layers.emplace_back(key.substr(r.size() + 1), lt.self_ns);
      self_sum += lt.self_ns;
    }
    std::stable_sort(layers.begin(), layers.end(), [&](const auto& a, const auto& b) {
      return rank(a.first) < rank(b.first);
    });
    std::printf("ledger %-12s n=%-6lld %10.1f us:", label.c_str(),
                static_cast<long long>(it->second.count),
                stmt_ns / static_cast<double>(it->second.count) / 1e3);
    for (const auto& [name, self_ns] : layers) {
      std::printf(" %s %.1f%%", name.c_str(),
                  100.0 * static_cast<double>(self_ns) / stmt_ns);
    }
    std::printf(" | remainder %.1f%% | self times sum to %.1f%%\n",
                100.0 * static_cast<double>(it->second.self_ns) / stmt_ns,
                100.0 * static_cast<double>(self_sum) / stmt_ns);
  };
  std::map<std::string, LayerTime> all;
  for (int c : classes) {
    std::map<std::string, LayerTime> led = Ledger(spans, root, c);
    print(spec.classes[static_cast<size_t>(c)].name, led);
    for (const auto& [key, lt] : led) {
      all[key].self_ns += lt.self_ns;
      all[key].incl_ns += lt.incl_ns;
      all[key].count += lt.count;
    }
  }
  print("(all above)", all);
}

}  // namespace perfbench

namespace perfbench {

std::vector<int> ReadClasses(const WorkloadSpec& spec) {
  std::vector<int> out;
  for (size_t i = 0; i < spec.classes.size(); ++i) {
    if (!spec.classes[i].write) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> AllClasses(const WorkloadSpec& spec) {
  std::vector<int> out;
  for (size_t i = 0; i < spec.classes.size(); ++i) {
    out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<std::string> ClassNames(const WorkloadSpec& spec) {
  std::vector<std::string> out;
  for (const StmtClass& c : spec.classes) out.push_back(c.name);
  return out;
}

namespace {

std::string JsonArray(const std::vector<double>& v) {
  std::string s;
  for (double x : v) s += (s.empty() ? "" : ", ") + JsonNumber(x);
  return "[" + s + "]";
}

}  // namespace

void AddEndToEnd(const WorkloadSpec& spec, const std::vector<double>& setup_s,
                 const std::vector<Segment>& segments,
                 const std::vector<Samples>& writes, RunOutput* out) {
  out->end_to_end.push_back({"setup_s", Median(setup_s), "s",
                             "median of " + std::to_string(setup_s.size()) +
                                 " set-ups"});
  out->record.push_back({"setup_s_each", JsonArray(setup_s)});
  std::vector<double> qps, rss;
  std::vector<Samples> reads;
  for (const Segment& seg : segments) {
    qps.push_back(seg.qps);
    rss.push_back(seg.rss_mb);
    reads.push_back(seg.reads);
  }
  std::string segs = "median of " + std::to_string(segments.size()) + " segments";
  out->end_to_end.push_back({"qps", Median(qps), "stmt/s", "closed loop, " + segs});
  out->record.push_back({"qps_each", JsonArray(qps)});

  auto name_of = [&](int c) {
    return c >= 0 ? spec.classes[static_cast<size_t>(c)].name : "none";
  };
  auto percentile = [&](const char* name, const char* kind,
                        const std::vector<Samples>& parts, double q) {
    Samples pooled;
    std::vector<double> each;
    size_t fewest = parts.empty() ? 0 : parts[0].size();
    for (const Samples& p : parts) {
      pooled.Append(p);
      each.push_back(p.Quantile(q));
      fewest = std::min(fewest, p.size());
    }
    auto [cls, window] = pooled.LandsIn(q);
    std::string shares;
    for (const auto& [c, share] : window) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%s %.0f%%", shares.empty() ? "" : ", ",
                    name_of(c).c_str(), 100 * share);
      shares += buf;
    }
    char head[160];
    std::snprintf(head, sizeof(head),
                  "median of %zu parts of >= %zu %s (highest percentile "
                  "supported: %s; %zu in all); ",
                  parts.size(), fewest, kind, HighestSupported(fewest).c_str(),
                  pooled.size());
    std::string note = head + ("lands in " + name_of(cls) +
                               " (rank window +-1%: " + shares + ")");
    out->end_to_end.push_back({name, Median(each), "ms", note});
    out->record.push_back({std::string(name) + "_each", JsonArray(each)});
    out->record.push_back({std::string(name) + "_samples_per_segment",
                           std::to_string(fewest)});
    out->record.push_back({std::string(name) + "_class", JsonString(name_of(cls))});
  };
  const std::vector<Samples>* kinds[] = {&reads, &writes};
  for (const std::vector<Samples>* parts : kinds) {
    Samples pooled;
    for (const Samples& p : *parts) pooled.Append(p);
    for (const auto& [cls, cs] : pooled.ByClass()) {
      std::printf("class %-14s n=%-6zu p50 %9.4f  p90 %9.4f  p99 %9.4f  "
                  "max %9.4f ms\n",
                  name_of(cls).c_str(), cs.size(), cs.Quantile(0.5),
                  cs.Quantile(0.9), cs.Quantile(0.99), cs.Quantile(1.0));
    }
  }
  percentile("read_p50_ms", "reads", reads, 0.50);
  percentile("read_p99_ms", "reads", reads, 0.99);
  percentile("write_p50_ms", "writes", writes, 0.50);
  percentile("write_p99_ms", "writes", writes, 0.99);
  out->end_to_end.push_back({"rss_peak_mb", Median(rss), "MiB",
                             "peak RSS of the executing process, " + segs});
  out->record.push_back({"rss_peak_mb_each", JsonArray(rss)});
}

void AddBuildMetric(const std::vector<Span>& setup_spans, int setups,
                    std::vector<Metric>* out) {
  std::map<std::string, LayerTime> led = Ledger(setup_spans, "build", -1);
  out->push_back({"core.build_ms",
                  static_cast<double>(led["build"].incl_ns) / 1e6 /
                      std::max(setups, 1),
                  "ms", "factorisations built per set-up"});
}

void AddEncodeMetrics(
    const fdb::AttributeRegistry& reg, const WorkloadSpec& spec,
    const std::function<fdb::Relation(const std::string&)>& execute,
    std::vector<Metric>* out) {
  double us = 0, bytes = 0, rows = 0, weight = 0;
  for (int c : ReadClasses(spec)) {
    const StmtClass& sc = spec.classes[static_cast<size_t>(c)];
    fdb::Relation res = execute(sc.sql);
    std::vector<double> times;
    int64_t b = 0;
    for (int i = 0; i < 3; ++i) {
      int64_t t0 = NowNs();
      b = EncodeResult(res, reg);
      times.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    us += sc.weight * Median(times);
    bytes += sc.weight * static_cast<double>(b);
    rows += sc.weight * static_cast<double>(res.size());
    weight += sc.weight;
  }
  out->push_back({"serve.encode_us", us / std::max(weight, 1.0), "us",
                  "EncodeSchema + EncodeRow of each read's result, in process, "
                  "mean per read"});
  out->push_back({"serve.bytes_per_row", bytes / std::max(rows, 1.0), "bytes",
                  "encoded bytes / rows"});
}

}  // namespace perfbench
