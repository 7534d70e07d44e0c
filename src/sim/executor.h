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
// TraceReplay is one session's replay in progress and step() its only
// per-instance body: run_trace loops over it, the fleet's SessionBatch steps
// a block of them instance-major, and the multi-tenant co-simulation
// (rtm/tenant_sim.cpp, DESIGN §9) steps whichever tenant's replay is furthest
// behind. A step never mutates the trace and touches only its own backend's
// state, which is what lets those drivers interleave sessions freely.
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

/// One session's replay of `trace` against `backend`, one hot-spot instance
/// per step(). `stats` is optional; with it the batched mode records every
/// run's latency segments, without it the backend fast-forwards each whole
/// instance (si_execution_span).
class TraceReplay {
 public:
  TraceReplay(const WorkloadTrace& trace, ExecutionBackend& backend, SimStats* stats = nullptr,
              ReplayMode mode = ReplayMode::kBatched);

  bool done() const { return next_ >= trace_->instances.size(); }
  /// The session's simulated clock: the cycle after the last step.
  Cycles clock() const { return result_.total_cycles; }
  /// Index into trace.instances of the instance the next step replays.
  std::size_t next_instance() const { return next_; }

  /// Replays the next instance: entry overhead, on_hot_spot_entry, its SI
  /// executions, on_hot_spot_exit. Counts one `sim.hot_spot_entries` and
  /// attributes the instance's cycles to its hot spot. Requires !done().
  void step();

  /// The result so far: total_cycles is clock(), atom_loads the backend's
  /// completed loads as of the last step (or construction).
  const SimResult& result() const { return result_; }

 private:
  const WorkloadTrace* trace_;
  ExecutionBackend* backend_;
  SimStats* stats_;
  ReplayMode mode_;
  std::size_t next_ = 0;
  SimResult result_;
  std::vector<LatencySegment> segments_;  // per-run scratch of the stats path
};

/// Replays `trace` against `backend`. `stats` is optional. Both modes yield
/// bit-exact identical SimResult and SimStats (tests/replay_equivalence_test
/// asserts this across every backend).
SimResult run_trace(const WorkloadTrace& trace, ExecutionBackend& backend,
                    SimStats* stats = nullptr, ReplayMode mode = ReplayMode::kBatched);

}  // namespace rispp
