// Molecule *selection* — the Run-Time Manager task the paper delegates to
// its companion work ("the details of the selection are beyond the scope of
// this paper", §3.1) but which the scheduler needs as input: which Molecule
// shall implement each SI of the upcoming hot spot, subject to the Atom
// Container budget NA = |sup M| <= #ACs.
//
// We implement the RISPP-style greedy profit ascent: starting from "every SI
// in software", repeatedly apply the single-molecule swap with the highest
// profit density
//
//     expectedExecs(SI) * (latency(current) - latency(candidate))
//     -----------------------------------------------------------
//          growth of |sup M| caused by the swap  (>= 1)
//
// (zero-growth improvements are taken eagerly — atom-type sharing between
// SIs makes them common) until no affordable improving swap remains.
//
// Each round is a trial table plus one argmax: the table (every affordable,
// improving swap with its latency gain and sup growth) does not depend on the
// forecast, and pick_best_trial is the only code that reads it. A
// SelectionRecord keeps both, so the RTM can re-run only the picks under a
// drifted forecast (DESIGN §6.2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "alg/molecule.h"
#include "base/pick_log.h"
#include "isa/si.h"

namespace rispp {

/// One affordable, improving swap of a selection round: SI `si` to molecule
/// `mol`. Nothing in it depends on the forecast.
struct SelectionTrial {
  SiId si = 0;
  MoleculeId mol = 0;
  unsigned trial_det = 0;  // |sup M| after the swap
  unsigned growth = 0;     // how much the swap grows |sup M| (0 = free)
  Cycles gain = 0;         // latency of the SI's current molecule minus mol's, > 0
};

/// A round's pick: the trial with the highest profit density. A trial's
/// profit is expected[si] * gain (forecast_product: it throws when that
/// overflows 64 bits); it scores profit * 1e9 / 1 when it is free (growth 0)
/// and profit / growth otherwise. Scores compare exactly, as 128-bit cross
/// products, and the first maximum wins. kNoPick when no trial has profit.
/// The long double ranking of select_molecules_reference agrees whenever
/// the largest profit times the largest growth is below 2^63 - 2 (the
/// argument is at the definition).
std::uint32_t pick_best_trial(std::span<const SelectionTrial> trials,
                              const std::vector<std::uint64_t>& expected);

/// Everything a select_molecules run read from the forecast: each round's
/// trial table and pick. `complete` is set when the run recorded every round
/// (requests with duplicate SIs take the unrecorded reference path).
struct SelectionRecord {
  PickLog<SelectionTrial, pick_best_trial> rounds;
  bool complete = false;

  /// True when every recorded round picks the same trial under `expected`:
  /// select_molecules would then return the recorded selection.
  bool replays(const std::vector<std::uint64_t>& expected) const {
    return complete && rounds.replays(expected);
  }
  void clear() {
    rounds.clear();
    complete = false;
  }
};

struct SelectionRequest {
  const SpecialInstructionSet* set = nullptr;
  /// SIs of the upcoming hot spot.
  std::vector<SiId> hot_spot_sis;
  /// Expected executions per SiId (monitoring forecast).
  std::vector<std::uint64_t> expected_executions;
  /// Atom Container budget (#ACs).
  unsigned container_count = 0;
  /// Optional, cleared by the caller: receives the run's rounds.
  SelectionRecord* record = nullptr;
};

/// Returns at most one SiRef per hot-spot SI; SIs that did not get hardware
/// under the budget are absent (they stay on the trap path).
/// Postcondition: |sup of returned molecules| <= container_count.
///
/// Incremental implementation: per round it materializes, for every hot-spot
/// SI position, the exclusive sup (join of all *other* SIs' chosen molecules)
/// from prefix/suffix joins, so each swap trial costs O(dim) instead of
/// re-joining the whole selection — O(rounds·|SIs|·molecules·dim) total.
/// Bit-exact with select_molecules_reference within pick_best_trial's bound:
/// join is an elementwise max (grouping-independent), the trial determinant
/// and growth expressions are verbatim those of the reference, the trial
/// iteration order is unchanged, and the exact pick ranks as the
/// reference's long double scores do. Inputs whose hot_spot_sis contain
/// duplicate ids (the reference excludes by *value*) take the reference path
/// and leave request.record untouched.
std::vector<SiRef> select_molecules(const SelectionRequest& request);

/// The original O(rounds·|SIs|²·molecules·dim) greedy with its long double
/// profit density, kept as the oracle for fuzz-equivalence tests and as the
/// fallback for duplicate hot_spot_sis.
std::vector<SiRef> select_molecules_reference(const SelectionRequest& request);

/// NA of a selection: |sup M| — the Atom Containers it occupies.
unsigned selection_atom_count(const SpecialInstructionSet& set,
                              std::vector<SiRef> const& selection);

/// Floor on the latency ANY run-time selection can ever give `si` under an
/// Atom Container budget of `container_count`: the fastest molecule whose
/// determinant fits the budget (a molecule needing more atoms than there are
/// containers can never be fully resident), or the trap latency when none
/// fits. The DSE engine's early-abandon bound sums this over the trace —
/// sound because an execution's latency is always that of some *available*
/// molecule (or the trap), and every available molecule fits the budget.
Cycles best_case_latency(const SpecialInstructionSet& set, SiId si,
                         unsigned container_count);

}  // namespace rispp
