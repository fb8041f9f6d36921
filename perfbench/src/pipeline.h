#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <optional>
#include <string>

#include "fdb/core/factorisation.h"
#include "fdb/engine/database.h"
#include "fdb/relational/relation.h"
#include "trace.h"

namespace perfbench {

/// What the traced pipeline reports besides the result.
struct PipelineInfo {
  int plan_ops = 0;
  std::string view;  ///< the view the statement read
  /// The factorisation enumeration read (after the f-plan ran); filled
  /// when requested, so its singletons can be counted outside any span.
  std::optional<fdb::Factorisation> enumerated;
};

/// Evaluates `sql` over a single factorised view exactly as
/// FdbEngine::ExecuteSql does with default options (greedy planner,
/// flat output, no limits), but step by step through the modules' public
/// functions, with a span around each step: parse, bind, input,
/// optimise, ops (one child per operator), then aggregate or enumerate.
/// The timed results are checked against the engine's own, so a drift
/// between this replica and FdbEngine shows as failed statements.
fdb::Relation TracedExecuteSql(fdb::Database* db, const std::string& sql,
                               Tracer* tr, PipelineInfo* info,
                               bool keep_enumerated);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
