// The cycle-level trace executor.
//
// The executor owns simulated time. It replays a WorkloadTrace against an
// ExecutionBackend — the RISPP Run-Time Manager or one of the baselines —
// asking the backend for the latency of every SI execution and advancing the
// clock by that latency plus the base-processor overhead the trace recorded.
// Reconfiguration happens inside the backend, concurrent with execution, as
// in the real platform (the port works while the pipeline executes).
//
// Two replay modes produce bit-exact identical results:
//  - kScalar: one si_execution_latency() call per execution (the reference).
//  - kBatched: one si_execution_run_latency() call per run of consecutive
//    identical executions. A backend's SI latency only changes when an atom
//    load completes on the reconfiguration port, so between port-completion
//    events a run of N executions advances in O(1) instead of O(N).
//
// replay_instance never mutates the trace and touches only its backend's
// state — the contract the multi-tenant co-simulation (rtm/tenant_sim.cpp,
// DESIGN §9) builds on: it steps each tenant through this body one whole
// instance at a time, in min-clock order.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "base/types.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace rispp {

/// A maximal stretch of executions within one run that all observed the same
/// latency (the latency can only change at reconfiguration-port events).
struct LatencySegment {
  std::uint64_t count = 0;
  Cycles latency = 0;
};

/// Appends `count` executions of `latency` to `segments`, coalescing with the
/// last segment when the latency is unchanged.
inline void append_latency_segment(std::vector<LatencySegment>& segments,
                                   std::uint64_t count, Cycles latency) {
  if (count == 0) return;
  if (!segments.empty() && segments.back().latency == latency)
    segments.back().count += count;
  else
    segments.push_back(LatencySegment{count, latency});
}

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;
  virtual std::string_view name() const = 0;

  /// A hot-spot instance begins (the backend typically re-selects molecules
  /// and reprograms the load queue here). `instance` indexes
  /// trace.instances; the hot spot id is trace.instances[instance].hot_spot.
  virtual void on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                                 Cycles now) = 0;

  /// The hot-spot instance ended (fold monitoring counters etc.).
  virtual void on_hot_spot_exit(Cycles now) = 0;

  /// Latency of executing `si` starting at `now`. The backend must first
  /// advance its internal reconfiguration state to `now`.
  virtual Cycles si_execution_latency(SiId si, Cycles now) = 0;

  /// Batched form: `count` back-to-back executions of `si`, the first
  /// starting at `now`, consecutive starts spaced by the observed latency
  /// plus `per_execution_overhead`. Appends the observed latency segments to
  /// `segments` (their counts must sum to `count`) and returns the summed
  /// latency (overheads excluded). Must be bit-exact with `count` scalar
  /// calls. The default loops the scalar path; backends whose latency only
  /// changes at reconfiguration-port events override it to fast-forward
  /// whole runs in O(port events).
  virtual Cycles si_execution_run_latency(SiId si, std::uint64_t count, Cycles now,
                                          Cycles per_execution_overhead,
                                          std::vector<LatencySegment>& segments);

  /// Whole-instance form for stats-less replay: executes every run of a
  /// hot-spot instance back to back, the first execution starting at `now`,
  /// and returns the cycle after the last execution's overhead. Must be
  /// bit-exact with per-run replay. The default loops
  /// si_execution_run_latency; backends override it to replay entire
  /// port-quiet windows (during which *every* SI's latency is fixed) with
  /// pure arithmetic, amortizing one virtual call over a whole instance.
  virtual Cycles si_execution_span(std::span<const SiRun> runs, Cycles now,
                                   Cycles per_execution_overhead);

  /// Completed atom loads so far (0 for baselines without reconfiguration).
  virtual std::uint64_t completed_loads() const { return 0; }
};

enum class ReplayMode {
  kScalar,   // one backend call per SI execution (reference path)
  kBatched,  // one backend call per run of identical SI executions
};

/// Replays one hot-spot instance in batched form — the shared per-instance
/// body of run_trace(kBatched), the fleet session loop and the multi-tenant
/// co-simulation, kept in one place so every driver is bit-exact with every
/// other: entry overhead, on_hot_spot_entry, the per-run stats path (latency
/// segments recorded into `stats`) or the stats-less whole-instance span
/// path, then on_hot_spot_exit. `now` is the cycle the instance is entered;
/// returns the cycle after the last execution. `si_executions` accumulates
/// the executed SI count; `segments` is caller-owned scratch so replay loops
/// stay allocation-free across instances.
Cycles replay_instance(const WorkloadTrace& trace, std::size_t instance,
                       ExecutionBackend& backend, SimStats* stats, Cycles now,
                       std::uint64_t& si_executions, std::vector<LatencySegment>& segments);

/// Replays `trace` against `backend`. `stats` is optional. Both modes yield
/// bit-exact identical SimResult and SimStats (tests/replay_equivalence_test
/// asserts this across every backend).
SimResult run_trace(const WorkloadTrace& trace, ExecutionBackend& backend,
                    SimStats* stats = nullptr, ReplayMode mode = ReplayMode::kBatched);

}  // namespace rispp
