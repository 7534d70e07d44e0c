// The port-quiet replay walk of the reconfigurable backends (the RISPP
// Run-Time Manager, Molen and OneChip), implemented once.
//
// An SI's latency changes only when the single reconfiguration port changes
// the ready atoms (§3.1, DESIGN §6). Between two such port events — a
// port-quiet window — every SI's latency is fixed, so a run of executions
// advances with at most one division and a whole hot-spot instance with pure
// arithmetic. PortWindowBackend implements the three ExecutionBackend replay
// entry points over that fact: the scalar reference step, the per-run form
// and the whole-instance span. A backend derives from it (CRTP, so the
// per-run loop pays no virtual call) and supplies its policy through two
// hooks:
//
//   void enter_hot_spot(const WorkloadTrace& trace, std::size_t instance,
//                       Cycles now);
//   Cycles open_window(Cycles now, SiId si);
//
// enter_hot_spot is the backend's entry policy (it begins the monitor's
// instance); the base's on_hot_spot_entry notes the instance before calling
// it. open_window advances the backend's port state to `now` (including
// whatever the execution of `si` starting at `now` asks of the port), brings
// cached_molecule_ and cached_latency_ up to date and returns the window end:
// the first time after `now` at which a port event could change a latency,
// or kMaxCycles when none is pending.
//
// The span walk takes whole blocks of each window of the noted instance
// from the checkpoints of its SiSummary (the block rule, take_blocks): the
// runs up to the furthest checkpoint whose last execution starts inside
// the window cost O(k) per checkpoint tried for the instance's k distinct
// SIs, plus a walk back for their last starts; at most one block is then
// stepped run by run to the port event. The instance end is the last
// checkpoint, so a window that holds every remaining execution finishes
// the instance (DESIGN §6, *One window walk*).
//
// A backend whose SIs ask the port for something at their first execution
// (OneChip's demand loading) declares `static constexpr bool
// kFirstUseReopen = true` and keeps reopen_ set for every SI whose next
// execution makes such a request; open_window clears the flag of the SI it
// opens for. The walk then ends a window before each such execution, so the
// request fires at exactly the time scalar replay issues it.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "base/metrics.h"
#include "base/types.h"
#include "isa/si.h"
#include "monitor/forecast.h"
#include "sim/executor.h"

namespace rispp {

/// How many of `count` (> 0) back-to-back executions spaced `step` cycles
/// apart, the first starting at `now`, start before `window_end` (> now) —
/// the executions that still see the current port state. The run stays
/// whole unless its last execution would start at or past the end, so only
/// a run crossing the end pays the division (and then gets [1, count)).
inline std::uint64_t executions_before(Cycles window_end, Cycles now, std::uint64_t count,
                                       Cycles step) {
  if ((count - 1) * step < window_end - now) return count;
  return (window_end - now + step - 1) / step;
}

/// `sim.replay.runs_stepped`: the runs the span walk steps one at a time,
/// each counted once (also when it crosses window ends). The rest of the
/// replayed runs were taken whole from the summary's checkpoints.
inline MetricCounter& runs_stepped_metric() {
  static MetricCounter& counter = metric_counter("sim.replay.runs_stepped");
  return counter;
}

template <class Derived>
class PortWindowBackend : public ExecutionBackend {
 public:
  /// Notes the instance for the span walk, then runs the backend's entry
  /// policy.
  void on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance, Cycles now) final {
    entered_ = &trace.instances[instance];
    derived().enter_hot_spot(trace, instance, now);
  }

  /// The reference path: one open_window per execution, then the cached
  /// molecule (or the trap) executes and the monitor observes it.
  Cycles si_execution_latency(SiId si, Cycles now) final {
    derived().open_window(now, si);
    monitor_.record_execution(si);
    stamp_lru(si, now);
    return cached_latency_[si];
  }

  Cycles si_execution_run_latency(SiId si, std::uint64_t count, Cycles now,
                                  Cycles per_execution_overhead,
                                  std::vector<LatencySegment>& segments) final {
    if (count == 0) return 0;
    const SiRun run{si, 0};  // the count travels as the walk's `remaining`
    std::uint64_t stepped = 0;
    const Cycles end = walk<true>(std::span<const SiRun>(&run, 1), count, now,
                                  per_execution_overhead, &segments, nullptr, stepped);
    return end - now - count * per_execution_overhead;
  }

  /// The summary path applies only to the whole noted instance (its own
  /// runs, same data and size), and only once per entry.
  Cycles si_execution_span(std::span<const SiRun> runs, Cycles now,
                           Cycles per_execution_overhead) final {
    const HotSpotInstance* entered = std::exchange(entered_, nullptr);
    const SiSummary* summary = entered != nullptr && runs.data() == entered->runs.data() &&
                                       runs.size() == entered->runs.size()
                                   ? &entered->summary()
                                   : nullptr;
    std::uint64_t stepped = 0;
    now = walk<false>(runs, 0, now, per_execution_overhead, nullptr, summary, stepped);
    runs_stepped_metric().add(stepped);
    return now;
  }

  void on_hot_spot_exit(Cycles) override {
    entered_ = nullptr;
    monitor_.end_hot_spot();
  }

 protected:
  /// No SI of the backend asks the port for anything at its first execution
  /// (see the file comment; a backend that does redeclares it true).
  static constexpr bool kFirstUseReopen = false;

  PortWindowBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count)
      : set_(set),
        monitor_(hot_spot_count, set->si_count()),
        type_last_used_(set->atom_type_count(), 0),
        cached_molecule_(set->si_count(), kSoftwareMolecule),
        cached_latency_(set->si_count(), 0),
        touch_gen_(set->si_count(), 0),
        last_start_(set->si_count(), 0) {
    for (SiId si = 0; si < set->si_count(); ++si)
      cached_latency_[si] = set->si(si).software_latency;
  }

  const SpecialInstructionSet* set_;
  ExecutionMonitor monitor_;
  std::vector<Cycles> type_last_used_;  // LRU stamps per atom type
  /// Per SiId, valid after open_window: the molecule whose atom types an
  /// execution LRU-stamps (kSoftwareMolecule: none), and the latency an
  /// execution takes.
  std::vector<MoleculeId> cached_molecule_;
  std::vector<Cycles> cached_latency_;
  /// Per SiId, read only when Derived::kFirstUseReopen (sized by the backend).
  std::vector<char> reopen_;

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }

  /// Stamps `at` on every atom type of `si`'s cached molecule. Only the
  /// latest stamp of a type survives scalar replay, and stamps only grow.
  void stamp_lru(SiId si, Cycles at) {
    const MoleculeId mol = cached_molecule_[si];
    if (mol == kSoftwareMolecule) return;
    const Molecule& atoms = set_->si(si).molecule(mol).atoms;
    for (std::size_t t = 0; t < atoms.dimension(); ++t)
      if (atoms[t] != 0 && type_last_used_[t] < at) type_last_used_[t] = at;
  }

  /// Marks `si` executed in the current window, its last start so far at
  /// `start`.
  void touch(SiId si, Cycles start) {
    last_start_[si] = start;
    if (touch_gen_[si] != window_gen_) {
      touch_gen_[si] = window_gen_;
      touched_.push_back(si);
    }
  }

  /// The block rule. With the window [now, window_end) just opened at run
  /// i of the instance `summary` describes (`remaining` of it left, 0: all),
  /// takes whole the runs before the furthest checkpoint whose last
  /// execution starts before window_end: executions start in increasing
  /// order, so the per-run walk would take each of those runs whole at the
  /// latencies cached now. Adds their executions to the monitor per slot,
  /// notes each SI's last start for the window's stamps by walking back
  /// from the checkpoint until every SI they hold has been seen, and
  /// advances i, remaining and now past them. Takes nothing when the first
  /// checkpoint ahead fails, or when a first-use SI with executions left
  /// has yet to open its own window.
  void take_blocks(const SiSummary& summary, std::span<const SiRun> runs, std::size_t& i,
                   std::uint64_t& remaining, Cycles& now, Cycles window_end,
                   Cycles per_execution_overhead) {
    const auto step = [&](SiId si) { return cached_latency_[si] + per_execution_overhead; };
    if constexpr (Derived::kFirstUseReopen)
      for (std::size_t slot = 0; slot < summary.size(); ++slot)
        if (reopen_[summary.si(slot)] && summary.total(slot) > monitor_.counted(summary.si(slot)))
          return;
    const auto fits = [&](std::size_t c) {
      const std::span<const std::uint64_t> counts = summary.checkpoint(c);
      Cycles span = 0;
      for (std::size_t slot = 0; slot < counts.size(); ++slot) {
        const SiId si = summary.si(slot);
        span += (counts[slot] - monitor_.counted(si)) * step(si);
      }
      return span - step(runs[summary.checkpoint_runs(c) - 1].si) < window_end - now;
    };
    // Fitting is monotone in c: bisect between the first checkpoint ahead
    // (it fits) and the first known not to.
    std::size_t c = i / SiSummary::kBlockRuns;
    if (!fits(c)) return;
    for (std::size_t fails = summary.checkpoints(); fails - c > 1;) {
      const std::size_t mid = c + (fails - c) / 2;
      (fits(mid) ? c : fails) = mid;
    }
    const std::span<const std::uint64_t> counts = summary.checkpoint(c);
    std::size_t unseen = 0;
    for (std::size_t slot = 0; slot < counts.size(); ++slot) {
      const SiId si = summary.si(slot);
      const std::uint64_t n = counts[slot] - monitor_.counted(si);
      if (n == 0) continue;
      ++unseen;
      monitor_.record_executions(si, n);
      now += n * step(si);
    }
    const std::size_t end = summary.checkpoint_runs(c);
    Cycles after = now;  // the cycle after run r
    for (std::size_t r = end; unseen > 0;) {
      const SiRun& run = runs[--r];
      if (touch_gen_[run.si] != window_gen_) {
        touch(run.si, after - step(run.si));
        --unseen;
      }
      after -= run.count * step(run.si);  // past run i only once unseen is 0
    }
    i = end;
    remaining = 0;
  }

  /// Replays `runs` from `now` and returns the cycle after the last
  /// execution's overhead. `remaining` (> 0) overrides runs[0].count. Per run
  /// inside a window: one monitor bulk-add and one clock advance; only a run
  /// crossing the window end divides. LRU stamps are materialized when the
  /// window closes, while the molecules it executed with are still cached and
  /// before open_window may pick a victim. With a `summary` (the span walk
  /// over a whole instance) each window first takes what it can by
  /// take_blocks, the instance end included. kRecord appends each stretch of
  /// equal latency to `segments`; `stepped` counts the runs whose stepping
  /// begins here. Bit-exact with scalar replay.
  template <bool kRecord>
  Cycles walk(std::span<const SiRun> runs, std::uint64_t remaining, Cycles now,
              Cycles per_execution_overhead, std::vector<LatencySegment>* segments,
              const SiSummary* summary, std::uint64_t& stepped) {
    std::size_t i = 0;
    while (i < runs.size()) {
      const Cycles window_end = derived().open_window(now, runs[i].si);
      ++window_gen_;
      touched_.clear();
      if (summary != nullptr)
        take_blocks(*summary, runs, i, remaining, now, window_end, per_execution_overhead);
      while (i < runs.size() && now < window_end) {
        const SiId si = runs[i].si;
        if constexpr (Derived::kFirstUseReopen)
          if (remaining == 0 && reopen_[si]) break;  // its first use opens a window
        const std::uint64_t count = remaining > 0 ? remaining : runs[i].count;
        const Cycles latency = cached_latency_[si];
        const Cycles step = latency + per_execution_overhead;
        const std::uint64_t fit = executions_before(window_end, now, count, step);
        stepped += remaining == 0;
        monitor_.record_executions(si, fit);
        touch(si, now + (fit - 1) * step);
        if constexpr (kRecord) append_latency_segment(*segments, fit, latency);
        now += fit * step;
        if (fit < count) {
          remaining = count - fit;
          break;  // reopen at the port event
        }
        ++i;
        remaining = 0;
      }
      for (const SiId si : touched_) stamp_lru(si, last_start_[si]);
    }
    return now;
  }

  // Noted at entry; cleared by the span walk that takes it or at exit, so it
  // never outlives the replay of its instance.
  const HotSpotInstance* entered_ = nullptr;
  // Window scratch, per SiId; the touch marks are validated against
  // window_gen_ so windows open without O(si_count) clears.
  std::uint64_t window_gen_ = 0;
  std::vector<std::uint64_t> touch_gen_;  // "executed this window" marker
  std::vector<Cycles> last_start_;        // last execution start this window
  std::vector<SiId> touched_;             // SIs executed this window
};

}  // namespace rispp
