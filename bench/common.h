// Shared context for the figure/table bench binaries.
//
// Every report binary replays the same 140-frame CIF H.264 workload (the
// paper's evaluation run). Generating the trace takes a few seconds, so it
// is cached on disk keyed by trace version, frame count and a fingerprint
// of the SI set + workload config (so edits to the library can never replay
// a stale trace); RISPP_FRAMES overrides the length (e.g. RISPP_FRAMES=20
// for a quick pass) and RISPP_TRACE_DIR the cache location (default: the
// system temp directory).
//
// Sweeps fan their cells across cores with run_sweep (RISPP_THREADS
// controls the width). Thread-safety contract: every run_* call builds its
// own backend and scheduler, so concurrent cells share only the immutable
// BenchContext (const SpecialInstructionSet + const WorkloadTrace). Keep it
// that way — never add mutable state to BenchContext that run_* touches.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "base/parallel.h"
#include "baselines/molen.h"
#include "fleet/spec.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp::bench {

struct BenchContext {
  BenchContext();

  SpecialInstructionSet set;
  WorkloadTrace trace;
  int frames;

  /// Runs the trace under the RISPP Run-Time Manager with `scheduler_name`.
  SimResult run_scheduler(const std::string& scheduler_name, unsigned container_count,
                          SimStats* stats = nullptr,
                          ForecastMode mode = ForecastMode::kMonitored) const;

  /// Runs the trace under the Molen-like baseline.
  SimResult run_molen(unsigned container_count, SimStats* stats = nullptr) const;

  /// Runs the trace under the OneChip-like baseline.
  SimResult run_onechip(unsigned container_count, SimStats* stats = nullptr) const;
};

/// Number of frames the benches use (env RISPP_FRAMES, default 140).
/// RISPP_FRAMES must be an integer >= 1 — garbage or 0 is a loud error
/// (exit kEnvParseExitCode), never a silent fall-back to the default.
int bench_frames();

/// Ensures the shared trace cache holds the bench workload (generating it if
/// missing), without constructing a full BenchContext. The concurrent bench
/// driver calls this once before fanning report binaries out, so every child
/// hits a warm cache instead of racing to encode the sequence.
void warm_trace_cache();

/// The fleet mix fig_multitenant sweeps: 16 sessions, HEF/SJF, 8 ACs per
/// tenant, lengths 1..min(frames, 4). Shared with warm_fleet_trace_cache so
/// the pre-warm and the bench can never drift apart.
fleet::FleetSpec multitenant_fleet_spec(int frames);

/// The fig7-like heterogeneous mix fleet_throughput runs: 400 sessions, all
/// schedulers, ACs 5..20, lengths 1..min(frames, 8).
fleet::FleetSpec throughput_fleet_spec(int frames);

/// Pre-generates every distinct workload trace the fleet benches touch into
/// the shared on-disk trace cache (via the fleet TraceRepository, which
/// persists on generation). Like warm_trace_cache, the driver calls this
/// once up front so child report binaries load instead of encoding.
void warm_fleet_trace_cache();

/// Fans `fn` over `cells` with parallel_for; results keep cell order, so the
/// output is deterministic regardless of RISPP_THREADS. `fn` must not touch
/// shared mutable state (see the thread-safety contract above).
template <typename Cell, typename Fn>
auto run_sweep(const std::vector<Cell>& cells, Fn&& fn) {
  using Result = std::decay_t<decltype(fn(cells.front()))>;
  std::vector<Result> results(cells.size());
  parallel_for(cells.size(), [&](std::size_t i) { results[i] = fn(cells[i]); });
  return results;
}

/// Machine-readable perf trajectory: when RISPP_BENCH_JSON_DIR is set, the
/// destructor writes <dir>/BENCH_<name>.json with wall-clock seconds,
/// cells/sec, thread count and frame count, so speedups stay trackable
/// across PRs. Off (no I/O) when the variable is unset; a failed write
/// (missing/unwritable dir) is reported on stderr, never swallowed.
class BenchPerfLog {
 public:
  explicit BenchPerfLog(std::string name);
  ~BenchPerfLog();
  BenchPerfLog(const BenchPerfLog&) = delete;
  BenchPerfLog& operator=(const BenchPerfLog&) = delete;

  /// Number of sweep cells the binary ran (for the cells/sec rate).
  void set_cells(std::size_t cells) { cells_ = cells; }

 private:
  std::string name_;
  std::size_t cells_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rispp::bench
