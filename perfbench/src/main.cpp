// perfbench: the repository benchmark driver. run.py builds it and calls
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--run-dir <dir>]
//
// Progress goes to stderr; the last (only) stdout line is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--run-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using rqsim::perfbench::Options;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--run-dir") {
      options.run_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.seconds <= 0.0 ||
      (options.trace && options.trace_out.empty()) ||
      (options.workload == "fleet_open_loop" && options.run_dir.empty())) {
    return usage();
  }

  rqsim::perfbench::Report report;
  try {
    const int status = options.workload == "fleet_open_loop"
                           ? rqsim::perfbench::run_fleet_workload(options, report)
                           : rqsim::perfbench::run_sim_workload(options, report);
    if (status != 0) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
      return status;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", report.to_json(options.trace).c_str());
  return 0;
}
