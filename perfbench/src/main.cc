// perfbench: the repository benchmark's binary. run.py builds it
// and invokes it as
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --spec FILE --out DIR [--commit SHA]
// It prints human-readable lines, a run record, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}, where the
// metrics are the end-to-end ones (--trace 0) or the per-layer ones
// (--trace 1).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "fdb/exec/task_pool.h"
#include "workload.h"

namespace {

using namespace perfbench;

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    s += (i ? ", " : "") + JsonString(ms[i].name) +
         ": {\"value\": " + JsonNumber(ms[i].value) +
         ", \"unit\": " + JsonString(ms[i].unit) + "}";
  }
  return s + "}";
}

#ifdef __clang__
const std::string kCompiler = std::string("clang ") + __clang_version__;
#else
const std::string kCompiler = std::string("gcc ") + __VERSION__;
#endif

int Usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --spec FILE --out DIR [--commit SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) return Usage();
    opt[k.substr(2)] = argv[i + 1];
  }
  for (const char* k : {"workload", "seed", "seconds", "trace", "spec", "out"}) {
    if (!opt.count(k)) return Usage();
  }
  try {
    RunContext ctx;
    ctx.spec = LoadSpec(opt["spec"]);
    if (ctx.spec.name != opt["workload"]) {
      throw std::runtime_error("spec is for workload " + ctx.spec.name);
    }
    ctx.seed = std::stoull(opt["seed"]);
    ctx.seconds = std::stod(opt["seconds"]);
    ctx.trace = opt["trace"] == "1";
    std::string out_dir = opt["out"];
    std::string tag = ctx.spec.name + "-seed" + opt["seed"] + "-trace" +
                      (ctx.trace ? "1" : "0");
    std::filesystem::create_directories(out_dir);
    ctx.work_dir = out_dir + "/work-" + tag + "-" + std::to_string(::getpid());
    ctx.trace_path = out_dir + "/" + tag + ".trace.json";

    std::printf("perfbench %s: seed %llu, %.0f s, trace %d, scale %d, "
                "%d client(s)\n",
                ctx.spec.name.c_str(), static_cast<unsigned long long>(ctx.seed),
                ctx.seconds, ctx.trace ? 1 : 0, ctx.spec.scale,
                ctx.spec.clients);
    std::fflush(stdout);
    RunOutput out = ctx.spec.served ? RunServed(ctx) : RunInProcess(ctx);

    const std::vector<Metric>& printed = ctx.trace ? out.per_layer : out.end_to_end;
    for (const Metric& m : printed) {
      std::printf("metric %-28s %14.6g %-7s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    double failed_frac = static_cast<double>(out.failed) /
                         static_cast<double>(std::max<int64_t>(out.attempted, 1));
    std::printf("failed_frac %.6g (%lld of %lld statements)\n", failed_frac,
                static_cast<long long>(out.failed),
                static_cast<long long>(out.attempted));

    std::string record = "{\"workload\": " + JsonString(ctx.spec.name) +
        ", \"seed\": " + opt["seed"] +
        ", \"seconds\": " + JsonNumber(ctx.seconds) +
        ", \"trace\": " + (ctx.trace ? "1" : "0") +
        ", \"scale\": " + std::to_string(ctx.spec.scale) +
        ", \"clients\": " + std::to_string(ctx.spec.clients) +
        ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
        ", \"taskpool_threads\": " +
        std::to_string(fdb::exec::TaskPool::Default().num_threads()) +
        ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
        ", \"compiler\": " + JsonString(kCompiler) +
        ", \"commit\": " + JsonString(opt.count("commit") ? opt["commit"] : "unknown") +
        ", \"failed_frac\": " + JsonNumber(failed_frac);
    for (const auto& [k, v] : out.record) record += ", " + JsonString(k) + ": " + v;
    record += "}";
    std::printf("record %s\n", record.c_str());

    std::string result = "{\"correct\": " +
                         std::string(out.failed == 0 ? "true" : "false") +
                         ", \"attempted\": " + std::to_string(out.attempted) +
                         ", \"failed\": " + std::to_string(out.failed) +
                         ", \"metrics\": " + MetricsJson(printed) + "}";
    std::ofstream(out_dir + "/" + tag + ".json")
        << "{\"record\": " << record << ", \"end_to_end\": "
        << MetricsJson(out.end_to_end) << ", \"per_layer\": "
        << MetricsJson(out.per_layer) << "}\n";
    std::printf("%s\n", result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
