#ifndef PERFBENCH_SPEC_H_
#define PERFBENCH_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One statement class of a workload mix.
struct StmtClass {
  std::string name;
  bool write = false;  ///< an autocommit INSERT of a fresh row into view `sql`
  int weight = 1;      ///< occurrences per round of the mix
  std::string sql;     ///< the read's text, or the written view's name
  std::string oracle_sql;  ///< the read over flat inputs, for RdbEngine
};

/// A workload as run.py hands it over (perfbench/workloads.json is the
/// source; run.py flattens it into the tab-separated file LoadSpec reads).
struct WorkloadSpec {
  std::string name;
  bool served = false;  ///< load goes through fdb_server over TCP
  int scale = 1;
  int clients = 1;
  int setup_reps = 1;   ///< set-ups per run; setup_s is their median
  std::vector<std::string> views;  ///< views to build besides KV
  std::vector<StmtClass> classes;
};

/// Parses the spec file; throws std::runtime_error on malformed input.
WorkloadSpec LoadSpec(const std::string& path);

/// The deterministic round robin over the classes: each class appears
/// `weight` times per round, spread evenly (smooth weighted round robin).
std::vector<int> Schedule(const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_SPEC_H_
