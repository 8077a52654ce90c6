// The repo benchmark's program: runs one workload and prints the result
// line. perfbench/run.py builds it and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <catalog_feed|serve_zipf|"
               "rule_maintenance> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--inject <prediction|recovery|"
               "response_id>] [--variant <pooled|open_loop>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--inject") {
      args.inject = value;
    } else if (flag == "--variant") {
      args.variant = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.work_dir.empty() || !(args.seconds > 0)) {
    return Usage();
  }
  if (args.trace) perfbench::Tracer::Enable();
  perfbench::Report report;
  int code = 0;
  if (args.workload == "catalog_feed") {
    code = perfbench::RunCatalogFeed(args, report);
  } else if (args.workload == "serve_zipf") {
    code = perfbench::RunServeZipf(args, report);
  } else if (args.workload == "rule_maintenance") {
    code = perfbench::RunRuleMaintenance(args, report);
  } else {
    return Usage();
  }
  if (code != 0) return code;
  report.Print();
  return report.correct() ? 0 : 1;
}
