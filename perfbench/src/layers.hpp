// The traced pass: the benchmark calls each layer's public functions
// itself, in the order run_noisy_parallel does, with an RQSIM_SPAN around
// every call, and turns the timings and counts into per-layer metrics.
#pragma once

#include <cstddef>
#include <cstdint>

#include "circuit/circuit.hpp"
#include "noise/noise_model.hpp"
#include "sched/tree_exec.hpp"
#include "bench.hpp"

namespace rqsim::perfbench {

/// One decomposed trial-set run: plan (generate → seed → reorder → tree →
/// verify), execute the tree, sample. Times are wall milliseconds.
struct LayerPass {
  bool executed = false;  // false: plan only, exec_ms is the accounting walk
  OutcomeHistogram histogram;
  TreeExecStats exec;
  std::size_t trials = 0;
  std::uint64_t error_events = 0;
  opcount_t planned_ops = 0;
  opcount_t predicted_ops = 0;  // predict_cached_ops on the same trial list
  std::size_t peak_demand = 0;
  double generate_ms = 0.0;
  double reorder_ms = 0.0;
  double build_ms = 0.0;
  double verify_ms = 0.0;
  double exec_ms = 0.0;
  double sample_ms = 0.0;  // inside the SampledTrialSink callbacks
};

/// Plan and, unless `plan_only`, execute on `threads` tree workers, with
/// Pauli-frame collapse when `frames` is set. With `plan_only` the
/// accounting walk (what analyze_noisy runs) replaces the execution and its
/// time lands in `exec_ms`.
LayerPass run_layer_pass(const Circuit& circuit, const NoiseModel& noise,
                         std::size_t trials, std::uint64_t seed,
                         std::size_t threads, bool plan_only, bool frames);

/// Sums the times and counts of `pass` into `total` (several job classes
/// of one workload); peak demand takes the maximum.
void add_pass(LayerPass& total, const LayerPass& pass);

/// 1-thread replay of a circuit's gate list through apply_gate.
struct KernelReplay {
  double ms = 0.0;  // whole passes, no per-call clock reads
  std::uint64_t calls = 0;
  double bytes = 0.0;  // computed: each call reads and writes every amplitude
  double amps_1q = 0.0, ms_1q = 0.0;  // per-call timed passes, by gate class
  double amps_2q = 0.0, ms_2q = 0.0;
};

/// Replays the gate list until at least `min_ms` has been spent (and at
/// least once). Accumulates into `out`.
void replay_gates(const Circuit& circuit, double min_ms, KernelReplay& out);

/// Median wall milliseconds of StateBufferPool::acquire_copy of a
/// `qubits`-qubit state, buffer recycled between copies (no page faults).
double pool_copy_ms(unsigned qubits, int reps);

/// Copy bandwidth roof in GB/s (read + write bytes over time) from
/// acquire_copy of a 2^kRoofQubits-amplitude state (512 MiB, far above the
/// last-level cache).
inline constexpr unsigned kRoofQubits = 25;
double copy_roof_gbps();

/// Fills the kernels.* / buffer_pool.* / trial.* / order.* / tree.* /
/// verify.* / plan.* / tree_exec.* / measure.* metrics. `qubits` sizes the
/// computed checkpoint copy bytes; `copy_ms` is pool_copy_ms at that size.
void set_pass_metrics(Report& report, const LayerPass& pass, const KernelReplay& replay,
                      unsigned qubits, double copy_ms, std::size_t threads,
                      double roof_gbps);

}  // namespace rqsim::perfbench
