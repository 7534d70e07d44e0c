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
// per-run loop pays no virtual call) and supplies its port policy through one
// hook:
//
//   Cycles open_window(Cycles now, SiId si);
//
// It advances the backend's port state to `now` (including whatever the
// execution of `si` starting at `now` asks of the port), brings
// cached_molecule_ and cached_latency_ up to date and returns the window end:
// the first time after `now` at which a port event could change a latency,
// or kMaxCycles when none is pending.
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
#include <vector>

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

template <class Derived>
class PortWindowBackend : public ExecutionBackend {
 public:
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
    const Cycles end = walk<true>(std::span<const SiRun>(&run, 1), count, now,
                                  per_execution_overhead, &segments);
    return end - now - count * per_execution_overhead;
  }

  Cycles si_execution_span(std::span<const SiRun> runs, Cycles now,
                           Cycles per_execution_overhead) final {
    return walk<false>(runs, 0, now, per_execution_overhead, nullptr);
  }

  void on_hot_spot_exit(Cycles) override { monitor_.end_hot_spot(); }

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

  /// Replays `runs` from `now` and returns the cycle after the last
  /// execution's overhead. `remaining` (> 0) overrides runs[0].count. Per run
  /// inside a window: one monitor bulk-add and one clock advance; only a run
  /// crossing the window end divides. LRU stamps are materialized when the
  /// window closes, while the molecules it executed with are still cached and
  /// before open_window may pick a victim. kRecord appends each stretch of
  /// equal latency to `segments`. Bit-exact with scalar replay.
  template <bool kRecord>
  Cycles walk(std::span<const SiRun> runs, std::uint64_t remaining, Cycles now,
              Cycles per_execution_overhead, std::vector<LatencySegment>* segments) {
    std::size_t i = 0;
    while (i < runs.size()) {
      const Cycles window_end = derived().open_window(now, runs[i].si);
      ++window_gen_;
      touched_.clear();
      while (i < runs.size() && now < window_end) {
        const SiId si = runs[i].si;
        if constexpr (Derived::kFirstUseReopen)
          if (remaining == 0 && reopen_[si]) break;  // its first use opens a window
        const std::uint64_t count = remaining > 0 ? remaining : runs[i].count;
        const Cycles latency = cached_latency_[si];
        const Cycles step = latency + per_execution_overhead;
        const std::uint64_t fit = executions_before(window_end, now, count, step);
        monitor_.record_executions(si, fit);
        last_start_[si] = now + (fit - 1) * step;
        if (touch_gen_[si] != window_gen_) {
          touch_gen_[si] = window_gen_;
          touched_.push_back(si);
        }
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

  // Window scratch, per SiId; the touch marks are validated against
  // window_gen_ so windows open without O(si_count) clears.
  std::uint64_t window_gen_ = 0;
  std::vector<std::uint64_t> touch_gen_;  // "executed this window" marker
  std::vector<Cycles> last_start_;        // last execution start this window
  std::vector<SiId> touched_;             // SIs executed this window
};

}  // namespace rispp
