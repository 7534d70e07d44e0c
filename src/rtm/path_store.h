// The RTM's path store (DESIGN §6.2): per recent (hot-spot SIs, ready atoms,
// budget), the last full decision's forecast-dependent picks. The monitor
// moves the forecast at almost every hot-spot instance, so most decision-memo
// misses repeat a known key with a new forecast; re-running the recorded
// picks under it costs a fraction of the full selection→schedule pipeline,
// and when every pick agrees the recorded decision is the pipeline's result.
//
// The store is not a second memo: the RTM consults it only after a
// DecisionMemo miss, and a path never answers without its picks being
// re-evaluated. A key is recorded from its second sighting on — the first
// leaves only a digest — and the store is bounded: dropping a path only
// costs a recompute.
#pragma once

#include <cstdint>
#include <vector>

#include "alg/molecule.h"
#include "rtm/decision_memo.h"
#include "sched/schedule.h"
#include "select/selection.h"

namespace rispp {

/// One full decision: its result and every forecast read that produced it.
struct DecisionPath {
  SelectionRecord selection;
  ScheduleRecord schedule;
  DecisionMemo::Decision decision;

  /// Both stages logged all their forecast reads: the built-in strategies
  /// do; a custom scheduler that reads the forecast in its own pick does not.
  bool replayable() const { return selection.complete && schedule.complete; }
  /// True when every recorded pick comes out the same under `forecast`:
  /// `decision` is then what the pipeline computes for it.
  bool replays(const std::vector<std::uint64_t>& forecast,
               Cycles payback_cycles_per_atom) const {
    return selection.replays(forecast) &&
           schedule.replays(forecast, payback_cycles_per_atom);
  }
  void clear() {
    selection.clear();
    schedule.clear();
  }
};

class PathStore {
 public:
  /// Recorded paths kept; past it the least recently used one is dropped.
  /// An H.264 sweep cell uses at most 26 keys.
  static constexpr std::size_t kCapacity = 32;
  /// First-sighting digests kept (a ring).
  static constexpr std::size_t kSightings = 2 * kCapacity;

  enum class Answer : std::uint8_t {
    kReplayed,  // every recorded pick agreed; `out` holds the recorded decision
    kDiverged,  // a recorded pick differed; computed and recorded anew
    kComputed,  // no replayable path; computed (and recorded from a key's
                // second sighting on)
  };

  /// Answers a decision-memo miss for (sis, ready, budget) under `forecast`.
  /// A replaying path copies its decision into `out`; otherwise
  /// compute(record) runs the full pipeline into `out`, recording it into
  /// `record` when that is not null.
  template <class Compute>
  Answer answer(const std::vector<SiId>& sis, const Molecule& ready, unsigned budget,
                const std::vector<std::uint64_t>& forecast, Cycles payback_cycles_per_atom,
                DecisionMemo::Decision& out, Compute&& compute) {
    const Found found = find(sis, ready, budget);
    if (found.recorded && found.path->replayable()) {
      if (found.path->replays(forecast, payback_cycles_per_atom)) {
        out = found.path->decision;
        return Answer::kReplayed;
      }
      compute(found.path);
      return Answer::kDiverged;
    }
    // A recorded path that is not replayable stays unrecorded: its
    // scheduler reads the forecast outside the logged picks.
    compute(found.recorded ? nullptr : found.path);
    return Answer::kComputed;
  }

  std::size_t size() const { return slots_.size(); }

 private:
  struct Found {
    DecisionPath* path = nullptr;  // null: the key's first sighting
    bool recorded = false;         // false: `path` is a slot to record into
  };
  struct Slot {
    std::vector<SiId> sis;
    Molecule ready;
    unsigned budget = 0;
    std::uint64_t last_use = 0;
    DecisionPath path;
  };

  /// The key's recorded path; on a key without one, null for its first
  /// sighting (whose digest is remembered) and an empty slot to record into
  /// from the second sighting on.
  Found find(const std::vector<SiId>& sis, const Molecule& ready, unsigned budget);

  std::vector<std::uint64_t> digests_;    // digests_[i] keys slots_[i]
  std::vector<Slot> slots_;               // grows with use, up to kCapacity
  std::vector<std::uint64_t> sightings_;  // first-sighting digests
  std::size_t next_sighting_ = 0;         // ring position once sightings_ is full
  std::uint64_t clock_ = 0;               // recency stamps for slots_
};

}  // namespace rispp
