#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sched/backend.hpp"
#include "sched/order.hpp"
#include "sched/plan.hpp"
#include "sched/tree.hpp"
#include "sim/buffer_pool.hpp"
#include "sim/kernels.hpp"
#include "sim/statevector.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/trace.hpp"
#include "trial/generator.hpp"
#include "verify/plan_verifier.hpp"

namespace rqsim::perfbench {

namespace {

/// Times the sampling callbacks of a SampledTrialSink (measure layer). Tree
/// workers call it concurrently, so the total is an atomic.
class TimedSink : public TreeTrialSink {
 public:
  explicit TimedSink(SampledTrialSink& inner) : inner_(inner) {}

  void on_finish_group(std::size_t node, std::size_t first_trial, std::size_t count,
                       const StateVector& state,
                       const std::vector<double>* probs) override {
    const telemetry::TimePoint start = telemetry::clock_now();
    inner_.on_finish_group(node, first_trial, count, state, probs);
    add(start);
  }

  void on_finish_frames(std::size_t node, const std::vector<FrameTrial>& frames,
                        const StateVector& state,
                        const std::vector<double>* probs) override {
    const telemetry::TimePoint start = telemetry::clock_now();
    inner_.on_finish_frames(node, frames, state, probs);
    add(start);
  }

  double ms() const { return static_cast<double>(ns_.load()) / 1e6; }

 private:
  void add(telemetry::TimePoint start) {
    ns_.fetch_add(telemetry::to_ns(telemetry::clock_now()) - telemetry::to_ns(start),
                  std::memory_order_relaxed);
  }

  SampledTrialSink& inner_;
  std::atomic<std::uint64_t> ns_{0};
};

/// The trial list exactly as run_noisy / run_noisy_parallel build it
/// (analyze_noisy skips the measurement seeds).
std::vector<Trial> plan_trials(const Circuit& circuit, const CircuitContext& ctx,
                               const NoiseModel& noise, std::size_t trials,
                               std::uint64_t seed, bool measurement_seeds,
                               LayerPass& pass) {
  std::vector<Trial> list;
  {
    RQSIM_SPAN("trial.generate");
    const telemetry::Stopwatch watch;
    Rng rng(seed);
    list = generate_trials(circuit, ctx.layering, noise, trials, rng);
    if (measurement_seeds) {
      assign_measurement_seeds(list, rng);
    }
    pass.generate_ms = watch.elapsed_ms();
  }
  {
    RQSIM_SPAN("order.reorder");
    const telemetry::Stopwatch watch;
    reorder_trials(list);
    pass.reorder_ms = watch.elapsed_ms();
  }
  pass.trials = list.size();
  for (const Trial& trial : list) {
    pass.error_events += trial.events.size();
  }
  return list;
}

}  // namespace

LayerPass run_layer_pass(const Circuit& circuit, const NoiseModel& noise,
                         std::size_t trials, std::uint64_t seed,
                         std::size_t threads, bool plan_only, bool frames) {
  LayerPass pass;
  pass.executed = !plan_only;
  const CircuitContext ctx(circuit);
  const std::vector<Trial> list =
      plan_trials(circuit, ctx, noise, trials, seed, !plan_only, pass);
  ScheduleOptions options;
  options.frame_collapse = frames && noise.all_channels_pauli();
  ExecTree tree;
  {
    RQSIM_SPAN("tree.build");
    const telemetry::Stopwatch watch;
    tree = build_exec_tree(ctx, list, options);
    pass.build_ms = watch.elapsed_ms();
  }
  pass.planned_ops = tree.planned_ops;
  pass.peak_demand = tree.peak_demand;
  {
    RQSIM_SPAN("verify.plan");
    const telemetry::Stopwatch watch;
    verify_tree_plan_or_throw(ctx, list, tree, options, "perfbench");
    pass.verify_ms = watch.elapsed_ms();
  }
  pass.predicted_ops = predict_cached_ops(ctx, list, options);

  if (plan_only) {
    RQSIM_SPAN("plan.walk");
    const telemetry::Stopwatch watch;
    CountBackend walk(ctx);
    schedule_trials(ctx, list, walk, options);
    pass.exec_ms = watch.elapsed_ms();
    pass.exec.ops = walk.ops();
    pass.exec.max_live_states = walk.max_live_states();
    return pass;
  }

  SampledTrialSink sampled(ctx, list, nullptr);
  TimedSink sink(sampled);
  TreeExecConfig config;
  config.num_threads = threads;
  {
    RQSIM_SPAN("tree_exec.execute");
    const telemetry::Stopwatch watch;
    pass.exec = execute_tree(ctx, tree, list, config, sink);
    pass.exec_ms = watch.elapsed_ms();
  }
  pass.sample_ms = sink.ms();
  pass.histogram = sampled.take_histogram();
  return pass;
}

void replay_gates(const Circuit& circuit, double min_ms, KernelReplay& out) {
  RQSIM_SPAN("kernels.replay");
  StateVector state(circuit.num_qubits());
  const double amps = static_cast<double>(state.dim());
  const telemetry::Stopwatch total;
  do {
    // One untimed-per-call pass gives the time per call and bytes per
    // second; a second pass times every call to split the gate classes.
    const telemetry::Stopwatch pass;
    for (const Gate& gate : circuit.gates()) {
      apply_gate(state, gate);
    }
    out.ms += pass.elapsed_ms();
    out.calls += circuit.gates().size();
    out.bytes += 2.0 * amps * static_cast<double>(sizeof(cplx)) *
                 static_cast<double>(circuit.gates().size());
    for (const Gate& gate : circuit.gates()) {
      const telemetry::TimePoint start = telemetry::clock_now();
      apply_gate(state, gate);
      const double ms = telemetry::ms_between(start, telemetry::clock_now());
      if (gate.arity() == 1) {
        out.amps_1q += amps;
        out.ms_1q += ms;
      } else {
        out.amps_2q += amps;
        out.ms_2q += ms;
      }
    }
  } while (total.elapsed_ms() < min_ms);
}

double pool_copy_ms(unsigned qubits, int reps) {
  RQSIM_SPAN("buffer_pool.acquire_copy");
  StateBufferPool pool;
  const StateVector source(qubits);
  pool.release(pool.acquire_copy(source));  // page the recycled buffer in
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const telemetry::Stopwatch watch;
    StateVector copy = pool.acquire_copy(source);
    times.push_back(watch.elapsed_ms());
    pool.release(std::move(copy));
  }
  return median(times);
}

double copy_roof_gbps() {
  const double ms = pool_copy_ms(kRoofQubits, 3);
  const double bytes = 2.0 * static_cast<double>(std::uint64_t{1} << kRoofQubits) *
                       static_cast<double>(sizeof(cplx));
  return bytes / (ms * 1e6);
}

void add_pass(LayerPass& total, const LayerPass& pass) {
  total.executed = pass.executed;
  total.exec.ops += pass.exec.ops;
  total.exec.fork_copies += pass.exec.fork_copies;
  total.exec.cow_materializations += pass.exec.cow_materializations;
  total.exec.pool_reuses += pass.exec.pool_reuses;
  total.exec.pool_allocs += pass.exec.pool_allocs;
  total.exec.steals += pass.exec.steals;
  total.exec.inline_fallbacks += pass.exec.inline_fallbacks;
  total.exec.uncomputations += pass.exec.uncomputations;
  total.exec.frame_collapsed_trials += pass.exec.frame_collapsed_trials;
  total.trials += pass.trials;
  total.error_events += pass.error_events;
  total.planned_ops += pass.planned_ops;
  total.predicted_ops += pass.predicted_ops;
  total.peak_demand = std::max(total.peak_demand, pass.peak_demand);
  total.generate_ms += pass.generate_ms;
  total.reorder_ms += pass.reorder_ms;
  total.build_ms += pass.build_ms;
  total.verify_ms += pass.verify_ms;
  total.exec_ms += pass.exec_ms;
  total.sample_ms += pass.sample_ms;
}

void set_pass_metrics(Report& report, const LayerPass& pass, const KernelReplay& replay,
                      unsigned qubits, double copy_ms, std::size_t threads,
                      double roof_gbps) {
  const TreeExecStats& exec = pass.exec;

  const double ns_per_call =
      replay.calls == 0 ? 0.0 : replay.ms * 1e6 / static_cast<double>(replay.calls);
  const double gbps = replay.ms > 0.0 ? replay.bytes / (replay.ms * 1e6) : 0.0;
  if (pass.executed) {
    report.set("kernels.matvec_ops", static_cast<double>(exec.ops));
    report.set("kernels.1q.amp_per_s",
               replay.ms_1q > 0.0 ? replay.amps_1q / (replay.ms_1q / 1e3) : 0.0);
    report.set("kernels.2q.amp_per_s",
               replay.ms_2q > 0.0 ? replay.amps_2q / (replay.ms_2q / 1e3) : 0.0);
    report.set("kernels.ns_per_call", ns_per_call);
    report.set("kernels.gbps", gbps);
    report.set("kernels.roof_frac", roof_gbps > 0.0 ? gbps / roof_gbps : 0.0);

    report.set("buffer_pool.fork_copies", static_cast<double>(exec.fork_copies));
    report.set("buffer_pool.cow_materializations",
               static_cast<double>(exec.cow_materializations));
    report.set("buffer_pool.pool_allocs", static_cast<double>(exec.pool_allocs));
    const double recycled = static_cast<double>(exec.pool_reuses + exec.pool_allocs);
    report.set("buffer_pool.reuse_ratio",
               recycled > 0.0 ? static_cast<double>(exec.pool_reuses) / recycled : 0.0);
    // The executor's real checkpoint copies are its CoW materializations.
    const double copies = static_cast<double>(exec.cow_materializations);
    report.set("buffer_pool.copy_bytes",
               copies * static_cast<double>(std::uint64_t{1} << qubits) *
                   static_cast<double>(sizeof(cplx)));
    report.set("buffer_pool.copy_ms_est", copies * copy_ms);

    report.set("tree_exec.exec_ms", pass.exec_ms);
    report.set("tree_exec.ops_per_s", static_cast<double>(exec.ops) / (pass.exec_ms / 1e3));
    report.set("tree_exec.steals", static_cast<double>(exec.steals));
    report.set("tree_exec.inline_fallbacks", static_cast<double>(exec.inline_fallbacks));
    report.set("tree_exec.uncomputations", static_cast<double>(exec.uncomputations));
    report.set("tree_exec.frame_collapsed_trials",
               static_cast<double>(exec.frame_collapsed_trials));
    report.set("tree_exec.busy_share_est",
               static_cast<double>(exec.ops) * ns_per_call /
                   (pass.exec_ms * 1e6 * static_cast<double>(threads)));
    report.set("measure.sample_ms", pass.sample_ms);
  } else {
    report.set("plan.walk_ms", pass.exec_ms);
  }
  report.set("kernels.roof_gbps", roof_gbps);

  report.set("trial.generate_ms", pass.generate_ms);
  report.set("trial.events_per_trial",
             pass.trials == 0 ? 0.0
                              : static_cast<double>(pass.error_events) /
                                    static_cast<double>(pass.trials));
  report.set("order.reorder_ms", pass.reorder_ms);
  report.set("tree.build_ms", pass.build_ms);
  report.set("tree.planned_ops", static_cast<double>(pass.planned_ops));
  report.set("tree.peak_demand", static_cast<double>(pass.peak_demand));
  report.set("verify.plan_ms", pass.verify_ms);
}

}  // namespace rqsim::perfbench
