// Batched multi-session simulation: the fleet-scale core.
//
// A SessionBatch replays thousands of independent sessions (heterogeneous
// content, length, scheduler strategy, AC budget, forecast mode) in one
// process, restructured for throughput:
//
//  - One stepper: each session is a TraceReplay (sim/executor.h) over its
//    own RTM, the per-instance body run_trace and the multi-tenant
//    co-simulation step too, and the batch keeps one SimResult per session.
//  - Cohorts: sessions that replay the same content share one immutable
//    WorkloadTrace via the process-wide fleet::TraceRepository. Cohort
//    stepping is *instance-major*: for each hot-spot instance of the shared
//    trace, every session of a block advances through that instance before
//    the walk moves on — the instance's run array stays resident in cache
//    across the whole block instead of being re-streamed once per session.
//  - Blocks: sessions of one cohort are grouped (arrival order) into blocks
//    of `block_size`; blocks are the work items the work-stealing ThreadPool
//    deals across workers, so stealing moves whole session groups *between*
//    sessions rather than splitting one session (a session's replay is
//    inherently serial — simulated time is a chain).
//  - Shared decisions: all sessions memoize through one DecisionMemo
//    (rtm/decision_memo.h), so a session's decisions are mostly replays of
//    decisions other sessions already computed.
//
// Correctness contract: every session's simulated results are bit-identical
// to the same session run alone through sim::run_trace on a fresh backend —
// batching, blocking, stealing and cache sharing may only change wall-clock.
// tests/fleet_test.cpp asserts this over randomized mixes, schedulers and
// thread counts.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/parallel.h"
#include "fleet/session.h"
#include "fleet/trace_repository.h"
#include "rtm/decision_memo.h"
#include "sim/stats.h"

namespace rispp::fleet {

/// The fleet's name for a decision memo shared across sessions.
using SharedDecisionCache = DecisionMemo;

struct FleetOptions {
  /// Sessions per work-stealing block (the stealing granularity).
  unsigned block_size = 8;
  /// Collect full per-session SimStats (buckets, latency timelines) — the
  /// equivalence tests use this; throughput runs leave it off to take the
  /// whole-instance span fast path.
  bool collect_stats = false;
  /// Memo every session shares; null uses a process-wide one.
  SharedDecisionCache* shared_cache = nullptr;
  /// Trace repository; null uses the global one.
  TraceRepository* traces = nullptr;
  /// Pool to fan blocks over; null uses ThreadPool::global().
  ThreadPool* pool = nullptr;
};

class SessionBatch {
 public:
  /// Resolves every spec's cohort (generating missing traces now, serially)
  /// and plans the blocks. Throws on unknown scheduler names.
  SessionBatch(std::vector<SessionSpec> specs, const FleetOptions& options);

  /// Replays every session to completion, fanning blocks across the pool in
  /// arrival order and honoring each session's arrival offset.
  void run();

  // -- Per-session results (valid after run()) ---------------------------
  std::size_t session_count() const { return specs_.size(); }
  const SessionSpec& spec(std::size_t s) const { return specs_[s]; }
  /// Bit-identical to the solo run.
  const SimResult& result(std::size_t s) const { return results_[s]; }
  /// Null unless options.collect_stats.
  const SimStats* stats(std::size_t s) const;
  /// Wall milliseconds from the session's arrival to its completion.
  double latency_ms(std::size_t s) const { return latency_ms_[s]; }
  std::uint64_t decision_cache_hits(std::size_t s) const { return dc_hits_[s]; }
  std::uint64_t decision_cache_misses(std::size_t s) const { return dc_misses_[s]; }

  std::size_t cohort_count() const { return cohorts_.size(); }
  std::size_t block_count() const { return blocks_.size(); }
  /// The options as resolved by the constructor (null caches filled in).
  const FleetOptions& options() const { return options_; }

 private:
  struct Block {
    std::uint32_t cohort = 0;
    std::vector<std::uint32_t> sessions;  // batch session ids, arrival order
    double arrival_ms = 0.0;              // earliest member arrival
    const char* trace_name = nullptr;     // interned label, null untraced
  };

  void run_block(const Block& block);

  std::vector<SessionSpec> specs_;
  FleetOptions options_;
  std::vector<const TraceEntry*> cohorts_;
  std::vector<Block> blocks_;  // ordered by arrival

  // -- Per-session results (written by run_block, one slot per session) --
  std::vector<SimResult> results_;
  std::vector<double> latency_ms_;
  std::vector<std::uint64_t> dc_hits_;
  std::vector<std::uint64_t> dc_misses_;
  std::vector<std::unique_ptr<SimStats>> stats_;  // collect_stats only

  std::chrono::steady_clock::time_point start_;
};

/// Summary of one fleet run (tools/fleet_driver.cpp, bench/fleet_throughput).
struct FleetReport {
  std::size_t sessions = 0;
  double wall_seconds = 0.0;
  double sessions_per_min = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Shared-decision-cache activity attributable to this run (deltas).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cross_session_hits = 0;
  /// cross_session_hits / (hits + misses); 0 without lookups.
  double cross_session_hit_rate = 0.0;
  /// Order-independent digest of every session's total_cycles — lets two
  /// fleet runs (or a fleet run and a solo sweep) be compared at a glance.
  std::uint64_t cycles_checksum = 0;
};

/// Runs a caller-owned batch and summarizes: throughput, completion-latency
/// percentiles, shared-cache hit rates. Also publishes
/// fleet.sessions_per_min / fleet.session_latency_{p50,p99}_ms gauges to the
/// metrics registry so BENCH_SUITE.json picks them up. The batch's results
/// stay valid afterwards (the driver's --solo cross-check reads them).
FleetReport run_fleet(SessionBatch& batch);

/// Convenience: builds the batch from the specs and runs it.
FleetReport run_fleet(const std::vector<SessionSpec>& specs, const FleetOptions& options);

}  // namespace rispp::fleet
