// ascend_perfbench — the repository benchmark. Runs one named workload and
// prints, as the last line of stdout, one JSON object with the fields
// correct, attempted, failed and metrics (see perfbench/README.md).
//
//   ascend_perfbench --workload <wire_tiny|engine_vit|paper_sweep> --seed <n>
//                    --seconds <s> --trace <0|1> [--setup-probe]
//                    [--spawn-ns <t>] [--prior-setup-s a,b,..] [--work-dir <dir>]
//                    [--low-rps r] [--high-rps r] [--limit-ms l]
//
// Normally launched through perfbench/run.py, which builds this binary,
// runs the set-up probes and passes the workload constants.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <sstream>
#include <string>

#include "common.h"
#include "serving.h"

using namespace perfbench;

namespace {

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-probe") {
      a.setup_probe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--spawn-ns") a.spawn_ns = std::stoll(v);
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--low-rps") a.low_rps = std::stod(v);
    else if (k == "--high-rps") a.high_rps = std::stod(v);
    else if (k == "--limit-ms") a.limit_ms = std::stod(v);
    else if (k == "--prior-setup-s") {
      std::stringstream ss(v);
      for (std::string item; std::getline(ss, item, ',');)
        if (!item.empty()) a.prior_setup_s.push_back(std::stod(item));
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr, "usage: see the header of perfbench/src/main.cpp\n");
    return 2;
  }
  const int omp = pin_openmp_team(1);
  // Measured runs keep the CPUs awake; set-up probes do not, because the
  // spinners slow the spawning of a process by milliseconds.
  std::unique_ptr<AwakeCpus> awake;
  if (!args.setup_probe) awake = std::make_unique<AwakeCpus>();
  std::fprintf(stderr, "perfbench: %s seed %llu, %.0f s, trace %d; host cpus %d, OpenMP team %d\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0, host_cpus(), omp);
  int code = 2;
  try {
    if (args.workload == "wire_tiny") code = run_wire_tiny(args);
    else if (args.workload == "engine_vit") code = run_engine_vit(args);
    else if (args.workload == "paper_sweep") code = run_paper_sweep(args);
    else std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    code = 3;
  }
  if (awake)
    std::fprintf(stderr, "perfbench: %d of %d CPUs kept awake\n", awake->running(), host_cpus());
  return code;
}
