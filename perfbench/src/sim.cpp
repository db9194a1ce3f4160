// The three trial-set workloads: run_noisy, run_noisy_parallel and
// analyze_noisy called the way `rqsim run` / `rqsim analyze` call them.
//
// --seed picks the random quantum-volume circuit (qv:<n>:<depth>:<seed>).
// The trial seed stays 1: QV circuits of one size share their gate
// structure, so the trial set, op counts, MSV and fork counts repeat
// exactly on every seed while the unitaries (and so the histograms) change.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "layers.hpp"
#include "sched/order.hpp"
#include "sched/parallel.hpp"
#include "sched/plan.hpp"
#include "service/workload.hpp"
#include "sim/statevector.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/trace.hpp"
#include "trial/generator.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim::perfbench {

namespace {

constexpr std::uint64_t kTrialSeed = 1;
constexpr double kSetupBurstMs = 2.0;
constexpr std::size_t kMinCalls = 6;
constexpr std::size_t kBlockCalls = 3;
constexpr std::size_t kMinTracedCalls = 2;

struct SimWorkload {
  const char* name;
  unsigned qubits;
  unsigned depth;
  std::size_t trials;
  std::size_t threads;  // 1: run_noisy; more: run_noisy_parallel (tree mode)
  bool analyze;         // analyze_noisy, no amplitudes, no transpile
};

// Why these three: see perfbench/README.md ("Workloads").
const SimWorkload kSimWorkloads[] = {
    {"sv_many_trials_1t", 10, 10, 4096, 1, false},
    {"sv_large_state_4t", 23, 1, 8, 4, false},
    {"analyze_scale", 40, 20, std::size_t{1} << 19, 1, true},
};

WorkloadSpec spec_for(const SimWorkload& w, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.circuit_spec = "qv:" + std::to_string(w.qubits) + ":" + std::to_string(w.depth) +
                      ":" + std::to_string(seed);
  spec.device = "artificial";
  spec.device_qubits = w.qubits;
  spec.device_rate = 1e-3;
  spec.no_transpile = w.analyze;
  return spec;
}

NoisyRunResult call_entry(const SimWorkload& w, const Workload& load) {
  if (w.analyze) {
    NoisyRunConfig config;
    config.num_trials = w.trials;
    config.seed = kTrialSeed;
    return analyze_noisy(load.circuit, load.noise, config);
  }
  if (w.threads > 1) {
    ParallelRunConfig config;
    config.num_trials = w.trials;
    config.seed = kTrialSeed;
    config.num_threads = w.threads;
    return run_noisy_parallel(load.circuit, load.noise, config);
  }
  NoisyRunConfig config;
  config.num_trials = w.trials;
  config.seed = kTrialSeed;
  return run_noisy(load.circuit, load.noise, config);
}

/// A same-seed reference from a different execution path: the sequential
/// walker for the tree-executor workload and the 4-thread tree executor
/// for the sequential one.
NoisyRunResult call_reference(const SimWorkload& w, const Workload& load) {
  if (w.threads > 1) {
    NoisyRunConfig config;
    config.num_trials = w.trials;
    config.seed = kTrialSeed;
    return run_noisy(load.circuit, load.noise, config);
  }
  ParallelRunConfig config;
  config.num_trials = w.trials;
  config.seed = kTrialSeed;
  config.num_threads = 4;
  return run_noisy_parallel(load.circuit, load.noise, config);
}

/// predict_cached_ops on the trial list the entry point builds.
opcount_t predicted_ops(const SimWorkload& w, const Workload& load) {
  const CircuitContext ctx(load.circuit);
  Rng rng(kTrialSeed);
  std::vector<Trial> trials =
      generate_trials(load.circuit, ctx.layering, load.noise, w.trials, rng);
  reorder_trials(trials);
  return predict_cached_ops(ctx, trials);
}

/// What every call must reproduce: the op count predict_cached_ops gives
/// for the entry point's trial list and, for statevector workloads, the
/// histogram of a same-seed reference run on another execution path.
struct Expected {
  opcount_t ops = 0;
  OutcomeHistogram histogram;  // empty for analyze_noisy
};

void check_call(Report& report, const NoisyRunResult& got, const Expected& want,
                const std::string& what) {
  if (got.ops != want.ops) {
    report.mismatch(what + ": ops " + std::to_string(got.ops) + " != predict_cached_ops " +
                    std::to_string(want.ops));
  }
  if (!want.histogram.empty()) {
    check_histogram(report, got.histogram, want.histogram, what);
  }
}

/// Computes the expected output. The reference run (or, for analyze_noisy,
/// one untimed call) doubles as the warm-up that fills caches and the
/// allocator before timing.
Expected expected_output(const SimWorkload& w, const Workload& load, Report& report) {
  Expected want;
  want.ops = predicted_ops(w, load);
  ++report.attempted;
  if (w.analyze) {
    check_call(report, call_entry(w, load), want, "warm-up call");
    return want;
  }
  NoisyRunResult reference = call_reference(w, load);
  if (reference.ops != want.ops) {
    report.mismatch("reference path ops differ from predict_cached_ops");
  }
  want.histogram = std::move(reference.histogram);
  return want;
}

/// Set-up: build the circuit and noise model (generate, transpile,
/// decompose) and first-touch a zeroed state of the workload's size.
/// Repeats for kSetupBurstMs (at least once), appending each time in seconds.
Workload setup_burst(const SimWorkload& w, const WorkloadSpec& spec,
                     std::vector<double>& setup_s, Report& report) {
  Workload load;
  const telemetry::Stopwatch burst;
  do {
    const telemetry::Stopwatch watch;
    load = build_workload(spec);
    if (!w.analyze && StateVector(w.qubits).norm_squared() != 1.0) {
      report.mismatch("initial state is not normalized");
    }
    setup_s.push_back(watch.elapsed_ms() / 1e3);
  } while (burst.elapsed_ms() < kSetupBurstMs);
  return load;
}

struct TimedCalls {
  std::vector<double> wall_ms;
  std::vector<double> setup_s;  // set-up bursts run between the calls
  NoisyRunResult last;
};

/// Calls the entry point until `budget_ms` is spent (at least `min_calls`
/// times), checking every result. A set-up burst runs before each call, so
/// the set-up samples span the run like the calls do.
TimedCalls timed_calls(const SimWorkload& w, const WorkloadSpec& spec, const Workload& load,
                       double budget_ms, std::size_t min_calls, const Expected& want,
                       Report& report) {
  TimedCalls out;
  const telemetry::Stopwatch total;
  while (out.wall_ms.size() < min_calls || total.elapsed_ms() < budget_ms) {
    setup_burst(w, spec, out.setup_s, report);
    const telemetry::Stopwatch watch;
    out.last = call_entry(w, load);
    out.wall_ms.push_back(watch.elapsed_ms());
    ++report.attempted;
    check_call(report, out.last, want, "timed call");
  }
  return out;
}

double fastest_ms(const TimedCalls& calls) {
  return *std::min_element(calls.wall_ms.begin(), calls.wall_ms.end());
}

/// A closed loop with one caller: each call is one job and the next starts
/// when the previous returns, so no backlog can build and the sustained
/// rate is the call rate. Throughput uses the fastest call, because other
/// tenants of the host slow whole stretches of calls (README.md, "Noise").
/// Fewer than 100 calls put the p99 at the slowest call, so the p99 is
/// taken per block of kBlockCalls calls and the median over blocks is
/// reported, as the fleet reports the median over rounds.
void set_call_metrics(const SimWorkload& w, const TimedCalls& calls, Report& report) {
  const std::vector<double>& setup_s = calls.setup_s;
  const std::vector<double>& wall_ms = calls.wall_ms;
  const double fastest = fastest_ms(calls);
  std::vector<double> block_p99;
  for (std::size_t b = 0; b + kBlockCalls <= wall_ms.size(); b += kBlockCalls) {
    const auto first = wall_ms.begin() + static_cast<std::ptrdiff_t>(b);
    block_p99.push_back(*std::max_element(first, first + kBlockCalls));
  }
  // Set-up takes the lower quartile of its samples for the same reason.
  report.set("setup_s", percentile(setup_s, 0.25));
  report.set("trials_per_s", static_cast<double>(w.trials) / (fastest / 1e3));
  report.set("normalized_computation", calls.last.normalized_computation);
  report.set("msv", static_cast<double>(calls.last.max_live_states));
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("jobs_per_s", 1e3 / fastest);
  report.set("max_rate_in_slo", 1e3 / fastest);
  report.set("job_p50_ms", median(wall_ms));
  report.set("job_p99_ms", block_p99.empty() ? wall_ms.back() : median(block_p99));

  std::string list;
  for (const double ms : wall_ms) {
    list += ' ';
    list += std::to_string(static_cast<long>(ms));
  }
  note(std::string(w.name) + ": " + std::to_string(wall_ms.size()) + " calls (ms):" + list +
       "; " + std::to_string(setup_s.size()) + " set-ups, lower quartile " +
       std::to_string(percentile(setup_s, 0.25) * 1e6) + " us");
}

void trace_pass(const SimWorkload& w, const Workload& load, const Expected& want,
                double roof_gbps, Report& report) {
  const LayerPass pass = run_layer_pass(load.circuit, load.noise, w.trials, kTrialSeed,
                                        w.threads, w.analyze, /*frames=*/false);
  ++report.attempted;
  if (pass.planned_ops != want.ops || pass.predicted_ops != want.ops ||
      pass.exec.ops != want.ops) {
    report.mismatch("layer pass ops differ from predict_cached_ops");
  }
  if (!w.analyze) {
    check_histogram(report, pass.histogram, want.histogram, "layer pass");
  }

  KernelReplay replay;
  double copy_ms = 0.0;
  if (!w.analyze) {
    replay_gates(load.circuit, 200.0, replay);
    copy_ms = pool_copy_ms(w.qubits, 5);
  }
  if (w.threads > 1) {
    const LayerPass one_thread = run_layer_pass(load.circuit, load.noise, w.trials,
                                                kTrialSeed, 1, false, false);
    report.set("tree_exec.speedup_vs_1t", one_thread.exec_ms / pass.exec_ms);
  }
  set_pass_metrics(report, pass, replay, w.qubits, copy_ms, w.threads, roof_gbps);
}

}  // namespace

int run_sim_workload(const Options& options, Report& report) {
  const SimWorkload* found = nullptr;
  for (const SimWorkload& w : kSimWorkloads) {
    if (options.workload == w.name) {
      found = &w;
    }
  }
  if (found == nullptr) {
    return 2;
  }
  const SimWorkload& w = *found;
  const WorkloadSpec spec = spec_for(w, options.seed);

  std::vector<double> first_setup;
  const Workload load = setup_burst(w, spec, first_setup, report);
  const Expected want = expected_output(w, load, report);
  // A trace run spends a third of --seconds on untraced calls, a third on
  // traced calls and the rest on the layer pass.
  const double budget_ms = options.seconds * 1e3 / (options.trace ? 3.0 : 1.0);
  const TimedCalls calls = timed_calls(w, spec, load, budget_ms,
                                       options.trace ? kMinTracedCalls : kMinCalls, want, report);
  set_call_metrics(w, calls, report);
  if (options.trace) {
    const double roof = copy_roof_gbps();
    telemetry::set_thread_lane("perfbench.main");
    telemetry::start_tracing();
    const TimedCalls traced =
        timed_calls(w, spec, load, budget_ms, kMinTracedCalls, want, report);
    report.set("trace.overhead_trials_per_s",
               static_cast<double>(w.trials) / (fastest_ms(traced) / 1e3) -
                   static_cast<double>(w.trials) / (fastest_ms(calls) / 1e3));
    telemetry::start_tracing();  // the exported trace holds the layer pass only
    trace_pass(w, load, want, roof, report);
    telemetry::stop_tracing();
    if (telemetry::export_trace(options.trace_out) < 0) {
      report.mismatch("cannot write trace " + options.trace_out);
    }
    report.set("trace.dropped_events",
               static_cast<double>(telemetry::trace_dropped_events()));
  }
  report.set("failed_frac", static_cast<double>(report.failed) /
                                static_cast<double>(report.attempted));
  return 0;
}

}  // namespace rqsim::perfbench
