// Workload traces: what the processor executes, independent of *how fast*.
//
// A trace is a sequence of hot-spot instances (e.g. ME, EE, LF of each
// frame), each carrying the exact order of SI executions the application
// issued plus the base-processor overhead around them. The functional H.264
// encoder records a trace once; the cycle-level executor then replays it
// under any Run-Time Manager / scheduler / AC-count configuration — the same
// record-replay methodology as the paper's simulation toolchain.
//
// Real SI streams are extremely repetitive (motion estimation issues tens of
// thousands of consecutive SADs), so an instance stores its executions only
// in run-length encoded form: maximal runs of one SI. The batched replay
// path (sim/executor.h) consumes whole runs at once; the scalar reference
// path expands them one execution at a time.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/types.h"
#include "monitor/forecast.h"

namespace rispp {

/// A maximal run of consecutive identical SI executions.
struct SiRun {
  SiId si = 0;
  std::uint32_t count = 0;

  bool operator==(const SiRun&) const = default;
};

struct HotSpotInstance {
  HotSpotInstance() = default;
  /// Encodes `executions` (SI executions in program order) through append().
  HotSpotInstance(HotSpotId hs, const std::vector<SiId>& executions, Cycles entry);

  /// The only run encoder: appends `count` executions of `si`, merged into
  /// the last run when it has the same SI so runs stay maximal. A zero
  /// count is a no-op.
  void append(SiId si, std::uint32_t count = 1);

  HotSpotId hot_spot = 0;
  /// Base-processor cycles spent entering the hot spot (control code, cache
  /// warmup) before the first SI.
  Cycles entry_overhead = 0;
  /// The SI executions in program order as maximal runs: every count > 0
  /// and no two adjacent runs share an SI.
  std::vector<SiRun> runs;
  /// Sum of the run counts (the instance's SI executions).
  std::uint64_t execution_count = 0;

  bool operator==(const HotSpotInstance&) const = default;
};

struct HotSpotInfo {
  std::string name;
  /// SIs this hot spot uses (input to Molecule selection).
  std::vector<SiId> sis;
  /// Base-processor cycles of glue code around each SI execution.
  Cycles per_execution_overhead = 0;

  bool operator==(const HotSpotInfo&) const = default;
};

struct WorkloadTrace {
  std::vector<HotSpotInfo> hot_spots;
  std::vector<HotSpotInstance> instances;

  std::size_t total_si_executions() const;
  /// Executions of one SI across the whole trace (scans every run).
  std::uint64_t executions_of(SiId si) const;

  /// Base-processor cycles the replay spends outside SI latencies: every
  /// instance's entry overhead plus the per-execution glue overhead of its
  /// hot spot. total_cycles of any replay is exactly this plus the summed SI
  /// latencies, so `overhead_cycles() + Σ execs·floor_latency` is a sound
  /// lower bound on any backend's total — the DSE early-abandon bound.
  Cycles overhead_cycles() const;

  /// True when every SI id in hot-spot `sis` entries and runs is below
  /// `si_count`, i.e. the trace fits an SI set of that size.
  bool si_ids_below(std::size_t si_count) const;

  /// Compact binary serialization (cache for expensive workload generation).
  /// Format v3 stores each instance as {hot spot, entry overhead, run
  /// count, runs} and ends in a digest of everything before it. load()
  /// throws std::logic_error on any other magic (v1 and v2 included), a
  /// digest mismatch, a length longer than the bytes left, an out-of-range
  /// hot spot or non-maximal runs.
  void save(std::ostream& os) const;
  static WorkloadTrace load(std::istream& is);

  bool operator==(const WorkloadTrace&) const = default;
};

/// Directory recorded-trace cache files live in: $RISPP_TRACE_DIR, or the
/// system temp directory when unset. Shared by the bench harness and the
/// fleet's TraceRepository so one warm cache serves both.
std::filesystem::path trace_cache_dir();

/// Atomically persists `trace` at `path`: writes a pid-and-counter-unique
/// temp file and renames it into place, so a concurrent reader never sees a
/// partial trace. Best-effort — unwritable paths are silently skipped (the
/// cache is an optimization, never a correctness dependency).
void save_trace_file(const WorkloadTrace& trace, const std::filesystem::path& path);

/// Loads the trace cached at `path`; nullopt when the file is missing or
/// fails load()'s validation (corrupt / stale format — regenerate).
std::optional<WorkloadTrace> try_load_trace_file(const std::filesystem::path& path);

/// The load-or-generate policy behind every workload family's cached trace:
/// the trace at `path` when it loads and fits an SI set of `si_count` SIs
/// (the set that will replay it), else `generate()`'s trace, saved over the
/// file. `from_cache`, when non-null, reports which.
template <typename Generate>
WorkloadTrace load_or_generate_trace(const std::filesystem::path& path, std::size_t si_count,
                                     Generate&& generate, bool* from_cache = nullptr) {
  std::optional<WorkloadTrace> cached = try_load_trace_file(path);
  const bool hit = cached.has_value() && cached->si_ids_below(si_count);
  if (from_cache != nullptr) *from_cache = hit;
  if (hit) return std::move(*cached);
  WorkloadTrace trace = std::forward<Generate>(generate)();
  save_trace_file(trace, path);
  return trace;
}

}  // namespace rispp
