#include "pipeline.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "fdb/core/build.h"
#include "fdb/core/enumerate.h"
#include "fdb/core/order.h"
#include "fdb/core/ops/aggregate.h"
#include "fdb/optimizer/fplan.h"
#include "fdb/optimizer/greedy.h"
#include "fdb/query/binder.h"
#include "fdb/query/parser.h"
#include "fdb/relational/rdb_ops.h"

namespace perfbench {
namespace {

using namespace fdb;

const char* OpSpanName(FOpKind k) {
  switch (k) {
    case FOpKind::kSwap:
      return "swap";
    case FOpKind::kMerge:
      return "merge";
    case FOpKind::kAbsorb:
      return "absorb";
    case FOpKind::kSelectConst:
      return "select";
    case FOpKind::kAggregate:
      return "aggregate";
    case FOpKind::kRename:
      return "rename";
  }
  return "op";
}

// The three helpers below mirror the engine's private ones in
// fdb_engine.cc; they decide how the enumeration phase runs.

bool OrderNeedsResult(const BoundQuery& q) {
  for (const SortKey& k : q.order_by) {
    for (AttrId id : q.task_ids) {
      if (k.attr == id) return true;
    }
  }
  return false;
}

void GroupVisitOrder(const FTree& tree, const std::vector<AttrId>& group,
                     const std::vector<SortKey>& order,
                     std::vector<int>* visit, std::vector<SortDir>* dirs) {
  std::unordered_set<int> seen;
  for (const SortKey& k : order) {
    int n = tree.NodeOfAttr(k.attr);
    if (n < 0) throw std::logic_error("order attribute not in tree");
    if (seen.insert(n).second) {
      visit->push_back(n);
      dirs->push_back(k.dir);
    }
  }
  std::unordered_set<int> g_nodes;
  for (AttrId a : group) {
    int n = tree.NodeOfAttr(a);
    if (n < 0) throw std::logic_error("group attribute not in tree");
    g_nodes.insert(n);
  }
  for (int n : tree.TopologicalOrder()) {
    if (g_nodes.count(n) && seen.insert(n).second) {
      visit->push_back(n);
      dirs->push_back(SortDir::kAsc);
    }
  }
}

Relation FullAggregation(const Factorisation& f, const BoundQuery& q) {
  Relation raw{RelSchema(q.task_ids)};
  Tuple row;
  if (f.empty()) {
    for (const AggTask& t : q.tasks) {
      row.push_back(t.fn == AggFn::kCount ? Value(static_cast<int64_t>(0))
                                          : Value());
    }
  } else {
    std::vector<std::pair<int, const FactNode*>> parts;
    for (size_t r = 0; r < f.roots().size(); ++r) {
      parts.emplace_back(f.tree().roots()[r], f.roots()[r]);
    }
    for (const AggTask& t : q.tasks) {
      row.push_back(EvalAggregateProduct(f.tree(), parts, t));
    }
  }
  raw.Add(std::move(row));
  return raw;
}

std::vector<SortDir> DirsFor(const FTree& tree, const std::vector<int>& visit,
                             const std::vector<SortKey>& order) {
  std::vector<SortDir> dirs(visit.size(), SortDir::kAsc);
  for (const SortKey& k : order) {
    int n = tree.NodeOfAttr(k.attr);
    for (size_t i = 0; i < visit.size(); ++i) {
      if (visit[i] == n) dirs[i] = k.dir;
    }
  }
  return dirs;
}

Relation Enumerate(const Factorisation& fact, const BoundQuery& q,
                   bool order_via_result) {
  std::optional<int64_t> enum_limit =
      q.having.empty() ? q.limit : std::nullopt;
  if (!q.has_aggregates() && !q.distinct_projection) {
    std::vector<int> o_nodes;
    for (const SortKey& k : q.order_by) {
      int n = fact.tree().NodeOfAttr(k.attr);
      if (n < 0) throw std::logic_error("order attribute not in tree");
      if (std::find(o_nodes.begin(), o_nodes.end(), n) == o_nodes.end()) {
        o_nodes.push_back(n);
      }
    }
    std::vector<int> visit = OrderedVisitSequence(fact.tree(), o_nodes);
    Relation rows = EnumerateToRelation(
        fact, visit, DirsFor(fact.tree(), visit, q.order_by), enum_limit);
    std::vector<AttrId> want;
    for (const OutputColumn& c : q.outputs) want.push_back(c.attr);
    return Project(rows, want, /*dedup=*/false);
  }
  Relation raw;
  if (q.group.empty() && q.has_aggregates()) {
    raw = FullAggregation(fact, q);
  } else {
    std::vector<int> visit;
    std::vector<SortDir> dirs;
    GroupVisitOrder(fact.tree(), q.group,
                    order_via_result ? std::vector<SortKey>{} : q.order_by,
                    &visit, &dirs);
    std::optional<int64_t> raw_limit;
    if (!order_via_result) raw_limit = enum_limit;
    raw = GroupAggToRelation(fact, visit, dirs, q.tasks, q.task_ids,
                             raw_limit);
  }
  Relation out =
      AssembleOutputs(q, raw, order_via_result ? std::nullopt : q.limit);
  if (!order_via_result) return out;
  // Order by an aggregate: factorise the small result along the order-by
  // list and enumerate it back in order.
  std::vector<AttrId> path;
  for (const SortKey& k : q.order_by) {
    if (std::find(path.begin(), path.end(), k.attr) == path.end()) {
      path.push_back(k.attr);
    }
  }
  for (AttrId a : out.schema().attrs()) {
    if (std::find(path.begin(), path.end(), a) == path.end()) {
      path.push_back(a);
    }
  }
  Factorisation rf = FactoriseRelation(out, path);
  std::vector<int> visit = rf.tree().TopologicalOrder();
  Relation ordered = EnumerateToRelation(
      rf, visit, DirsFor(rf.tree(), visit, q.order_by), q.limit);
  return Project(ordered, out.schema().attrs(), /*dedup=*/false);
}

}  // namespace

Relation TracedExecuteSql(Database* db, const std::string& sql, Tracer* tr,
                          PipelineInfo* info, bool keep_enumerated) {
  ParsedQuery pq;
  {
    SpanScope s(tr, "parse");
    pq = ParseSql(sql);
  }
  BoundQuery q;
  {
    SpanScope s(tr, "bind");
    q = Bind(pq, db);
  }
  if (q.from.size() != 1) {
    throw std::invalid_argument("traced pipeline runs single-view queries");
  }
  Factorisation fact;
  {
    SpanScope s(tr, "input");
    std::shared_ptr<const Factorisation> v = db->ViewSnapshot(q.from[0]);
    if (v == nullptr) {
      throw std::invalid_argument("not a factorised view: " + q.from[0]);
    }
    fact = *v;
  }
  bool order_via_result = OrderNeedsResult(q);
  FPlan plan;
  {
    SpanScope s(tr, "optimise");
    PlannerQuery pl;
    pl.eq_selections = q.eq_selections;
    pl.const_selections = q.const_selections;
    pl.group = q.group;
    pl.tasks = q.tasks;
    if (!order_via_result) {
      for (const SortKey& k : q.order_by) pl.order.push_back(k.attr);
    }
    plan = GreedyPlan(fact.tree(), db->registry(), pl);
  }
  {
    SpanScope s(tr, "ops");
    for (const FOp& op : plan) {
      SpanScope o(tr, OpSpanName(op.kind));
      ExecuteOp(&fact, &db->registry(), op);
    }
  }
  info->plan_ops = static_cast<int>(plan.size());
  info->view = q.from[0];
  Relation out;
  {
    SpanScope s(tr, q.has_aggregates() ? "aggregate" : "enumerate");
    out = Enumerate(fact, q, order_via_result);
  }
  if (keep_enumerated) info->enumerated = std::move(fact);
  return out;
}

}  // namespace perfbench
