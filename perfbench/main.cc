// perfbench — the end-to-end benchmark harness. run.py builds it and runs
//
//   perfbench --workload=<solve-medium|sweep-small|serve-tenants>
//             --seed=<n> --seconds=<s> --trace=<0|1>
//             --out-dir=<dir> --daemon=<bundlemined>
//
// It prints a human-readable summary and, as its last line, one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace=0, the per-layer metrics with --trace=1 (which also writes the
// span file into --out-dir). Exits non-zero, printing no result, when a
// workload cannot run at all.

#include <cstdio>
#include <map>
#include <string>

#include "bench.h"
#include "util/flags.h"
#include "util/strings.h"
#include "workloads.h"

using namespace perfbench;

int main(int argc, char** argv) {
  bundlemine::FlagSet flags;
  flags.Define("workload", "", "solve-medium | sweep-small | serve-tenants");
  flags.Define("seed", "1", "input seed: the same seed gives the same inputs");
  flags.Define("seconds", "15", "length of the timed phase");
  flags.Define("trace", "0", "1 = traced per-layer run, 0 = end-to-end run");
  flags.Define("out-dir", ".", "span file and daemon scratch directory");
  flags.Define("daemon", "", "bundlemined binary (serve-tenants)");
  flags.Parse(argc, argv);

  RunOptions run;
  run.workload = flags.GetString("workload");
  run.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  run.seconds = flags.GetDouble("seconds");
  run.trace = flags.GetInt("trace") != 0;
  run.out_dir = flags.GetString("out-dir");
  run.daemon = flags.GetString("daemon");

  Tracer tracer(run.trace);
  Report report;
  bool ran = false;
  if (run.workload == "solve-medium") {
    ran = RunSolveMedium(run, &tracer, &report);
  } else if (run.workload == "sweep-small") {
    ran = RunSweepSmall(run, &tracer, &report);
  } else if (run.workload == "serve-tenants") {
    ran = RunServeTenants(run, &tracer, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s' (solve-medium, sweep-small, "
                 "serve-tenants)\n", run.workload.c_str());
    return 2;
  }
  if (!ran) return 1;

  std::printf("%s seed=%llu seconds=%g trace=%d\n", run.workload.c_str(),
              static_cast<unsigned long long>(run.seed), run.seconds,
              run.trace ? 1 : 0);
  for (const std::string& line : report.notes()) {
    std::printf("  %s\n", line.c_str());
  }
  if (run.trace) {
    const std::string path = bundlemine::StrFormat(
        "%s/spans-%s-seed%llu.json", run.out_dir.c_str(), run.workload.c_str(),
        static_cast<unsigned long long>(run.seed));
    const std::map<std::string, std::string> header = {
        {"workload", run.workload},
        {"seed", std::to_string(run.seed)},
        {"seconds", bundlemine::StrFormat("%g", run.seconds)}};
    if (!tracer.Write(path, header)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("  spans: %zu written to %s\n", tracer.size(), path.c_str());
  }
  std::printf("%s\n", report.ResultLine().c_str());
  return 0;
}
