#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "service/json.hpp"

namespace rqsim::perfbench {

// Units are part of the contract with BENCHMARK.json; run.py checks names.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"trials_per_s", "trials/s"},
    {"normalized_computation", "fraction"},
    {"msv", "states"},
    {"peak_rss_mb", "MiB"},
    {"jobs_per_s", "1/s"},
    {"max_rate_in_slo", "1/s"},
};

// The <layer>.self_ms metrics come from the exported trace and are added
// by run.py.
const std::vector<MetricDef> kPerLayer = {
    {"job_p50_ms", "ms"},
    {"job_p99_ms", "ms"},
    {"failed_frac", "fraction"},
    {"kernels.matvec_ops", "count"},
    {"kernels.1q.amp_per_s", "amp/s"},
    {"kernels.2q.amp_per_s", "amp/s"},
    {"kernels.ns_per_call", "ns"},
    {"kernels.gbps", "GB/s"},
    {"kernels.roof_gbps", "GB/s"},
    {"kernels.roof_frac", "fraction"},
    {"buffer_pool.fork_copies", "count"},
    {"buffer_pool.cow_materializations", "count"},
    {"buffer_pool.copy_bytes", "bytes"},
    {"buffer_pool.copy_ms_est", "ms"},
    {"buffer_pool.pool_allocs", "count"},
    {"buffer_pool.reuse_ratio", "fraction"},
    {"trial.generate_ms", "ms"},
    {"trial.events_per_trial", "events"},
    {"order.reorder_ms", "ms"},
    {"tree.build_ms", "ms"},
    {"tree.planned_ops", "count"},
    {"tree.peak_demand", "states"},
    {"verify.plan_ms", "ms"},
    {"plan.walk_ms", "ms"},
    {"tree_exec.exec_ms", "ms"},
    {"tree_exec.ops_per_s", "1/s"},
    {"tree_exec.steals", "count"},
    {"tree_exec.inline_fallbacks", "count"},
    {"tree_exec.uncomputations", "count"},
    {"tree_exec.frame_collapsed_trials", "count"},
    {"tree_exec.busy_share_est", "fraction"},
    {"tree_exec.speedup_vs_1t", "x"},
    {"measure.sample_ms", "ms"},
    {"service.queue_ms.p50", "ms"},
    {"service.queue_ms.p99", "ms"},
    {"service.exec_ms.p50", "ms"},
    {"service.exec_ms.p99", "ms"},
    {"service.rejected", "count"},
    {"batch.mean_jobs", "jobs"},
    {"batch.merge_rate", "fraction"},
    {"batch.ops_saved_frac", "fraction"},
    {"router.hop_ms.p50", "ms"},
    {"router.hop_ms.p99", "ms"},
    {"router.cross_tenant_merge_hit_rate", "fraction"},
    {"router.backend_imbalance", "ratio"},
    {"router.admission_rejects", "count"},
    {"router.resubmits", "count"},
    {"loadgen.lag_ms.p99", "ms"},
    {"loadgen.rung0.rate", "1/s"},
    {"loadgen.rung0.sent", "count"},
    {"loadgen.rung0.succeeded", "count"},
    {"loadgen.rung0.failed", "count"},
    {"loadgen.rung0.refused", "count"},
    {"loadgen.rung0.p99_ms", "ms"},
    {"loadgen.rung0.backlog", "count"},
    {"loadgen.rung1.rate", "1/s"},
    {"loadgen.rung1.sent", "count"},
    {"loadgen.rung1.succeeded", "count"},
    {"loadgen.rung1.failed", "count"},
    {"loadgen.rung1.refused", "count"},
    {"loadgen.rung1.p99_ms", "ms"},
    {"loadgen.rung1.backlog", "count"},
    {"loadgen.rung2.rate", "1/s"},
    {"loadgen.rung2.sent", "count"},
    {"loadgen.rung2.succeeded", "count"},
    {"loadgen.rung2.failed", "count"},
    {"loadgen.rung2.refused", "count"},
    {"loadgen.rung2.p99_ms", "ms"},
    {"loadgen.rung2.backlog", "count"},
    {"loadgen.rung3.rate", "1/s"},
    {"loadgen.rung3.sent", "count"},
    {"loadgen.rung3.succeeded", "count"},
    {"loadgen.rung3.failed", "count"},
    {"loadgen.rung3.refused", "count"},
    {"loadgen.rung3.p99_ms", "ms"},
    {"loadgen.rung3.backlog", "count"},
    {"trace.overhead_trials_per_s", "trials/s"},
    {"trace.dropped_events", "count"},
};

void Report::mismatch(const std::string& what) {
  correct = false;
  ++failed;
  note("output check failed: " + what);
}

std::string Report::to_json(bool trace) const {
  Json metrics = Json::object();
  for (const MetricDef& def : trace ? kPerLayer : kEndToEnd) {
    const auto it = values.find(def.name);
    const double value = it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    Json entry = Json::object();
    entry.set("value", Json(value));
    entry.set("unit", Json(def.unit));
    metrics.set(def.name, std::move(entry));
  }
  Json out = Json::object();
  out.set("correct", Json(correct));
  out.set("attempted", Json(attempted));
  out.set("failed", Json(failed));
  out.set("metrics", std::move(metrics));
  return out.dump();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void check_histogram(Report& report, const OutcomeHistogram& got,
                     const OutcomeHistogram& want, const std::string& what) {
  if (got != want || got.empty()) {
    report.mismatch(what + ": histogram differs from the reference");
  }
}

void note(const std::string& line) {
  std::fprintf(stderr, "perfbench: %s\n", line.c_str());
}

}  // namespace rqsim::perfbench
