// The Atom scheduling problem of §4.2.
//
// Input: the Molecules selected for the upcoming hot spot (one per SI), the
// atoms currently available in the Atom Containers, and the expected SI
// execution counts from online monitoring. Output: the scheduling function
// SF — an ordered list of Unit-Molecules (single atom loads), eq. (1) —
// subject to the multiplicity condition eq. (2).
//
// All four strategies (§4.3/4.4) reduce Atom scheduling to *Molecule*
// scheduling: each step commits one candidate molecule and emits the atoms
// it still misses (a ⊖ m). The shared machinery lives in UpgradeState.
//
// Only three functions read the forecast: the payback verdict (pays_back),
// the importance order's pick (pick_most_important) and HEF's benefit argmax
// (pick_highest_benefit). Everything they compare — candidates, latency
// gains, additional atoms — follows from the request without it. A
// ScheduleRecord keeps each call's inputs and outcome, so the RTM can re-run
// only those calls under a drifted forecast (DESIGN §6.2).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "alg/molecule.h"
#include "base/pick_log.h"
#include "isa/candidates.h"
#include "isa/si.h"

namespace rispp {

/// A candidate molecule with the forecast-independent inputs of its benefit:
/// the atoms it still misses, |a ⊖ m|, and its latency gain. A row of the
/// importance and HEF pick tables and of the payback verdicts.
struct CandidateRow {
  SiRef candidate;
  unsigned atoms = 0;
  Cycles gain = 0;
};

/// The payback rule (ScheduleRequest::payback_cycles_per_atom): a candidate
/// stays iff its expected saving within the hot-spot instance,
/// expected[si] * gain, exceeds its load time, atoms * cycles_per_atom
/// (128-bit products).
bool pays_back(const CandidateRow& row, const std::vector<std::uint64_t>& expected,
               Cycles cycles_per_atom);

/// by_importance's pick: the row with the largest importance expected[si] *
/// gain (forecast_product: it throws when that overflows 64 bits), ties to
/// the lower SiId, then to the first row. kNoPick only for an empty table.
std::uint32_t pick_most_important(std::span<const CandidateRow> rows,
                                  const std::vector<std::uint64_t>& expected);

/// HEF's pick (Figure 6 lines 18-24, defined in sched/hef.cpp): the row with
/// the highest benefit expected[si] * gain / atoms under the §5
/// division-free compare (forecast_product: it throws when expected[si] *
/// gain overflows 64 bits); the first maximum wins. kNoPick when every
/// benefit is 0.
std::uint32_t pick_highest_benefit(std::span<const CandidateRow> rows,
                                   const std::vector<std::uint64_t>& expected);

/// One payback verdict of an UpgradeState cleaning.
struct PaybackVerdict {
  CandidateRow row;
  bool keep = false;
};

/// Everything one schedule() call read from the forecast. UpgradeState logs
/// the payback verdicts, by_importance its picks and HEF its rounds; a
/// strategy sets `complete` once all of its forecast reads went through
/// them (the four built-in strategies do, so a wrapper that forwards the
/// request records too). A record that is not complete is never replayed.
struct ScheduleRecord {
  std::vector<PaybackVerdict> payback;
  PickLog<CandidateRow, pick_most_important> importance;
  PickLog<CandidateRow, pick_highest_benefit> benefit;
  bool complete = false;

  /// True when every recorded verdict and pick comes out the same under
  /// `expected`: the strategy would then commit the recorded molecules.
  bool replays(const std::vector<std::uint64_t>& expected,
               Cycles payback_cycles_per_atom) const;
  void clear();
};

struct ScheduleRequest {
  const SpecialInstructionSet* set = nullptr;
  /// Selected Molecules M — at most one per SI (the selection substrate
  /// guarantees |sup M| <= #ACs).
  std::vector<SiRef> selected;
  /// Atoms already configured when the hot spot is entered (warm start).
  Molecule available;
  /// Expected executions per SiId for this hot-spot instance (monitoring).
  std::vector<std::uint64_t> expected_executions;

  /// Payback rule (0 = disabled): a candidate molecule is only worth
  /// scheduling if its expected cycle savings within this hot-spot instance,
  /// expectedExecs * (bestLatency - latency), exceed the reconfiguration
  /// time of its missing atoms, |a ⊖ m| * payback_cycles_per_atom. The
  /// Run-Time Manager enables this with the port's average atom load time;
  /// it prunes tail upgrades that would only evict other hot spots' atoms
  /// without ever repaying their own load.
  Cycles payback_cycles_per_atom = 0;

  /// Optional, cleared by the caller: receives the call's forecast reads.
  ScheduleRecord* record = nullptr;
};

/// One committed upgrade step: the molecule composed and how many atom loads
/// it appended to SF.
struct UpgradeStep {
  SiRef molecule;
  std::size_t first_load = 0;  // index into Schedule::loads
  std::size_t load_count = 0;
};

struct Schedule {
  /// SF(1..k): atom types in loading order (each entry is one Unit-Molecule).
  std::vector<AtomTypeId> loads;
  /// The molecule-level decisions that generated `loads`, in order.
  std::vector<UpgradeStep> steps;
};

/// Validity of a schedule under warm starts and candidate cleaning:
///  (a) the loads never exceed what sup(M) still misses (condition (2) as an
///      upper bound — a ⊖ sup(M) per type), and
///  (b) after all loads every selected SI reaches at least its selected
///      molecule's latency.
/// For a cold start in which no candidate is cleaned away this degenerates to
/// the paper's exact multiplicity condition (2) (tested separately).
bool is_valid_schedule(const ScheduleRequest& request, const Schedule& schedule);

/// Strategy interface. Implementations are stateless; `schedule` is const.
class AtomScheduler {
 public:
  virtual ~AtomScheduler() = default;
  virtual std::string_view name() const = 0;
  virtual Schedule schedule(const ScheduleRequest& request) const = 0;
};

struct UpgradeScratch;  // per-thread vector capacity pool (schedule.cpp)

/// Shared molecule-upgrade bookkeeping used by all strategies.
/// Draws its vector storage from a per-thread scratch pool while alive, so
/// the one-UpgradeState-per-schedule() pattern stops allocating once warm.
class UpgradeState {
 public:
  explicit UpgradeState(const ScheduleRequest& request);
  ~UpgradeState();
  UpgradeState(const UpgradeState&) = delete;
  UpgradeState& operator=(const UpgradeState&) = delete;

  /// Live candidates after eq. (4) cleaning (cleans lazily on access).
  const std::vector<SiRef>& live_candidates();

  /// Commits a candidate: appends a ⊖ m to the schedule, updates a and
  /// bestLatency (Figure 6 lines 25-28).
  void commit(const SiRef& molecule);

  /// True when the SI's selected molecule latency has been reached.
  bool reached_selected(const SiRef& selected) const;

  const Molecule& available() const { return available_; }
  Cycles best_latency(SiId si) const { return best_latency_[si]; }
  std::uint64_t expected_executions(SiId si) const;
  unsigned additional_atoms(const SiRef& candidate) const;
  Cycles latency(const SiRef& candidate) const { return set_->latency(candidate); }
  /// A live candidate's row: additional atoms and gain over bestLatency.
  CandidateRow candidate_row(const SiRef& candidate) const;

  Schedule take_schedule() { return std::move(schedule_); }
  const ScheduleRequest& request() const { return *request_; }

 private:
  void clean();

  const ScheduleRequest* request_;
  const SpecialInstructionSet* set_;
  Molecule available_;
  Molecule delta_;                     // commit() scratch: a ⊖ m
  std::vector<Cycles> best_latency_;   // per SiId
  std::vector<SiRef> candidates_;      // M' progressively cleaned to M''
  bool dirty_ = true;
  Schedule schedule_;
  UpgradeScratch* scratch_ = nullptr;  // owning pool slot, returned in dtor
};

/// Orders `selected` by descending importance — expected executions x the
/// selected Molecule's improvement over what is available — ties by SiId,
/// then stable: one pick_most_important per position, logged to
/// request.record (FSFR, ASF and SJF order their SIs with it).
std::vector<SiRef> by_importance(const ScheduleRequest& request);

}  // namespace rispp
