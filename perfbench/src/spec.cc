#include "spec.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, '\t')) out.push_back(field);
  if (!line.empty() && line.back() == '\t') out.push_back("");
  return out;
}

int PositiveInt(const std::string& s, const std::string& what) {
  int v = 0;
  try {
    v = std::stoi(s);
  } catch (const std::exception&) {
    throw std::runtime_error("spec: bad " + what + " '" + s + "'");
  }
  if (v < 1) throw std::runtime_error("spec: " + what + " must be >= 1");
  return v;
}

}  // namespace

WorkloadSpec LoadSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("spec: cannot open " + path);
  WorkloadSpec spec;
  bool have_header = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> f = SplitTabs(line);
    if (f[0] == "workload" && f.size() == 7) {
      spec.name = f[1];
      if (f[2] != "inproc" && f[2] != "served") {
        throw std::runtime_error("spec: bad mode '" + f[2] + "'");
      }
      spec.served = f[2] == "served";
      spec.scale = PositiveInt(f[3], "scale");
      spec.clients = PositiveInt(f[4], "clients");
      spec.setup_reps = PositiveInt(f[5], "setup_reps");
      std::stringstream views(f[6]);
      std::string v;
      while (std::getline(views, v, ',')) {
        if (!v.empty()) spec.views.push_back(v);
      }
      have_header = true;
    } else if (f[0] == "class" && f.size() == 6) {
      StmtClass c;
      c.name = f[1];
      if (f[2] != "read" && f[2] != "insert") {
        throw std::runtime_error("spec: bad class kind '" + f[2] + "'");
      }
      c.write = f[2] == "insert";
      c.weight = PositiveInt(f[3], "weight");
      c.sql = f[4];
      c.oracle_sql = f[5];
      spec.classes.push_back(std::move(c));
    } else {
      throw std::runtime_error("spec: malformed line: " + line);
    }
  }
  if (!have_header || spec.classes.empty()) {
    throw std::runtime_error("spec: needs a workload line and classes");
  }
  return spec;
}

std::vector<int> Schedule(const WorkloadSpec& spec) {
  int total = 0;
  for (const StmtClass& c : spec.classes) total += c.weight;
  std::vector<int> current(spec.classes.size(), 0);
  std::vector<int> out;
  for (int step = 0; step < total; ++step) {
    int best = 0;
    for (size_t i = 0; i < spec.classes.size(); ++i) {
      current[i] += spec.classes[i].weight;
      if (current[i] > current[best]) best = static_cast<int>(i);
    }
    current[best] -= total;
    out.push_back(best);
  }
  return out;
}

}  // namespace perfbench
