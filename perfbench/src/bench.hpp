// Shared pieces of the perfbench driver: run options, the metric table,
// the result report, and small statistics helpers.
//
// Every metric the benchmark can print is listed once in kEndToEnd /
// kPerLayer (bench.cpp) with its unit; BENCHMARK.json names the same set
// and run.py refuses a result whose metric names drift from it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sched/runner.hpp"

namespace rqsim::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // trace mode: Chrome trace written here (absolute)
  std::string run_dir;    // fleet: working directory for the unix sockets
};

struct MetricDef {
  const char* name;
  const char* unit;
};

extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

/// What one run reports. Metrics of a layer the workload does not exercise
/// stay unset and print as 0.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }

  /// Record a failed output check: the run is not correct and the
  /// operation counts as failed.
  void mismatch(const std::string& what);

  /// The single JSON result line: end-to-end metrics when
  /// `trace` is false, per-layer metrics when it is true.
  std::string to_json(bool trace) const;
};

double median(std::vector<double> values);

/// Nearest-rank percentile (p in [0, 1]) of unsorted values; 0 when empty.
double percentile(std::vector<double> values, double p);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Bitwise histogram comparison; on mismatch records it in `report`.
void check_histogram(Report& report, const OutcomeHistogram& got,
                     const OutcomeHistogram& want, const std::string& what);

/// Progress and diagnostics go to stderr; stdout carries only the result.
void note(const std::string& line);

int run_sim_workload(const Options& options, Report& report);
int run_fleet_workload(const Options& options, Report& report);

}  // namespace rqsim::perfbench
