#include "select/selection.h"

#include <algorithm>

#include "base/check.h"

namespace rispp {

unsigned selection_atom_count(const SpecialInstructionSet& set,
                              std::vector<SiRef> const& selection) {
  Molecule acc(set.atom_type_count());
  for (const SiRef& s : selection) join_into(acc, set.si(s.si).molecule(s.mol).atoms);
  return acc.determinant();
}

std::vector<SiRef> select_molecules_reference(const SelectionRequest& request) {
  const SpecialInstructionSet& set = *request.set;
  RISPP_CHECK(request.expected_executions.size() == set.si_count());

  // chosen[si] = molecule id or kSoftwareMolecule.
  std::vector<MoleculeId> chosen(set.si_count(), kSoftwareMolecule);
  Molecule sup_now(set.atom_type_count());

  auto latency_of = [&](SiId si) {
    return set.si(si).latency(chosen[si]);
  };

  for (;;) {
    // Find the best affordable swap.
    bool found = false;
    long double best_density = 0.0L;
    SiId best_si = 0;
    MoleculeId best_mol = 0;
    Molecule best_sup(set.atom_type_count());

    for (SiId si : request.hot_spot_sis) {
      const SpecialInstruction& s = set.si(si);
      const Cycles current = latency_of(si);
      const std::uint64_t execs = request.expected_executions[si];
      for (MoleculeId m = 0; m < s.molecules.size(); ++m) {
        if (s.molecules[m].latency >= current) continue;  // not an improvement
        // sup after swapping this SI to molecule m.
        Molecule trial(set.atom_type_count());
        for (SiId other : request.hot_spot_sis) {
          if (other == si) continue;
          if (chosen[other] != kSoftwareMolecule)
            join_into(trial, set.si(other).molecule(chosen[other]).atoms);
        }
        join_into(trial, s.molecules[m].atoms);
        if (trial.determinant() > request.container_count) continue;  // unaffordable

        const unsigned growth = trial.determinant() >= sup_now.determinant()
                                    ? trial.determinant() - sup_now.determinant()
                                    : 0;
        const long double profit =
            static_cast<long double>(execs) *
            static_cast<long double>(current - s.molecules[m].latency);
        if (profit <= 0.0L) continue;  // never burn area on unexecuted SIs
        const long double density =
            profit / static_cast<long double>(growth == 0 ? 1 : growth);
        // Zero-growth improvements dominate everything else.
        const long double score = growth == 0 ? density * 1e9L : density;
        if (!found || score > best_density) {
          found = true;
          best_density = score;
          best_si = si;
          best_mol = m;
          best_sup = trial;
        }
      }
    }
    if (!found) break;
    chosen[best_si] = best_mol;
    sup_now = best_sup;
  }

  std::vector<SiRef> selection;
  for (SiId si : request.hot_spot_sis)
    if (chosen[si] != kSoftwareMolecule) selection.push_back(SiRef{si, chosen[si]});
  RISPP_CHECK(selection_atom_count(set, selection) <= request.container_count);
  return selection;
}

namespace {

/// Per-thread scratch so the hot path allocates nothing once warmed up:
/// molecules of dimension <= Molecule::kInlineCapacity live entirely in the
/// inline buffers, and the vectors only grow when a larger hot spot appears.
struct SelectionScratch {
  std::vector<MoleculeId> chosen;
  // pre[k] = join of chosen molecules at positions < k; suf[k] = at >= k.
  std::vector<Molecule> pre;
  std::vector<Molecule> suf;
  Molecule excl;  // join of all positions != k, rebuilt per trial position
  PickLog<SelectionTrial, pick_best_trial> unrecorded;  // rounds of a request without a record
};

bool has_duplicate_sis(const std::vector<SiId>& sis) {
  for (std::size_t i = 0; i < sis.size(); ++i)
    for (std::size_t j = i + 1; j < sis.size(); ++j)
      if (sis[i] == sis[j]) return true;
  return false;
}

}  // namespace

// Exact pick. A trial scores the fraction profit·10⁹/1 when free, else
// profit/growth, with profit < 2^64 (forecast_product) and growth < 2^32,
// so each cross product stays below 2^94 · 2^32 = 2^126.
//
// Where it agrees with the reference's long double scores: the 64-bit
// significand holds every profit exactly, and each score is then rounded
// once (the division, or the 10⁹ scaling), monotonically. So the two
// rankings can differ only where two distinct scores x > y round to one
// long double r, which needs x - y <= ulp(r) <= 2^-63·x·(1 + 2^-64). Two
// distinct fractions n/d and n'/d' differ by at least 1/(d·d'), and two
// free scores by at least 10⁹; in every pairing that needs some row's
// profit times some row's growth (taken as 1 for a free row) to reach
// 2^63 - 2. Below that the picks agree: forecasts under 2^24 executions,
// gains under 2^16 cycles and growths of at most 64 atoms stay under
// 2^46. Above it the exact pick keeps the larger score where long double
// ties, e.g. (2^62 + 5)/7 against 1,976,436,865,040,309,104/3.
std::uint32_t pick_best_trial(std::span<const SelectionTrial> trials,
                              const std::vector<std::uint64_t>& expected) {
  constexpr std::uint64_t kFreeScale = 1'000'000'000;  // zero-growth rows dominate
  std::uint32_t best = kNoPick;
  __uint128_t best_num = 0;
  std::uint64_t best_den = 1;
  for (std::uint32_t i = 0; i < trials.size(); ++i) {
    const SelectionTrial& t = trials[i];
    const std::uint64_t profit = forecast_product(expected, t.si, t.gain);
    if (profit == 0) continue;  // never burn area on unexecuted SIs
    const __uint128_t num = t.growth == 0 ? static_cast<__uint128_t>(profit) * kFreeScale : profit;
    const std::uint64_t den = t.growth == 0 ? 1 : t.growth;
    if (best == kNoPick || num * best_den > best_num * den) {
      best = i;
      best_num = num;
      best_den = den;
    }
  }
  return best;
}

std::vector<SiRef> select_molecules(const SelectionRequest& request) {
  const SpecialInstructionSet& set = *request.set;
  RISPP_CHECK(request.expected_executions.size() == set.si_count());

  // The reference trial excludes the swapped SI by *value*; the prefix/suffix
  // decomposition excludes by position. Identical only when ids are unique —
  // which every RTM-produced request satisfies.
  if (has_duplicate_sis(request.hot_spot_sis)) return select_molecules_reference(request);

  const std::size_t n = request.hot_spot_sis.size();
  const std::size_t dim = set.atom_type_count();

  thread_local SelectionScratch scratch;
  scratch.chosen.assign(set.si_count(), kSoftwareMolecule);
  std::vector<MoleculeId>& chosen = scratch.chosen;
  if (scratch.pre.size() < n + 1) scratch.pre.resize(n + 1);
  if (scratch.suf.size() < n + 1) scratch.suf.resize(n + 1);

  auto& rounds = request.record != nullptr ? request.record->rounds : scratch.unrecorded;
  if (request.record == nullptr) rounds.clear();
  std::vector<SelectionTrial>& trials = rounds.rows();
  const unsigned budget = request.container_count;
  unsigned sup_now_det = 0;  // |sup of chosen| — all the reference reads of sup_now

  for (;;) {
    // Exclusive sups for this round: excl(k) = pre[k] ∪ suf[k+1].
    scratch.pre[0].assign_zero(dim);
    for (std::size_t k = 0; k < n; ++k) {
      scratch.pre[k + 1] = scratch.pre[k];
      const MoleculeId c = chosen[request.hot_spot_sis[k]];
      if (c != kSoftwareMolecule)
        join_into(scratch.pre[k + 1], set.si(request.hot_spot_sis[k]).molecule(c).atoms);
    }
    scratch.suf[n].assign_zero(dim);
    for (std::size_t k = n; k-- > 0;) {
      scratch.suf[k] = scratch.suf[k + 1];
      const MoleculeId c = chosen[request.hot_spot_sis[k]];
      if (c != kSoftwareMolecule)
        join_into(scratch.suf[k], set.si(request.hot_spot_sis[k]).molecule(c).atoms);
    }

    // The round's trial table, in the reference's iteration order.
    const std::size_t begin = trials.size();
    for (std::size_t k = 0; k < n; ++k) {
      const SiId si = request.hot_spot_sis[k];
      const SpecialInstruction& s = set.si(si);
      // Locals, so the row stores below do not force reloads of either.
      const std::span<const MoleculeImpl> molecules = s.molecules;
      const Cycles current = s.latency(chosen[si]);
      scratch.excl = scratch.pre[k];
      join_into(scratch.excl, scratch.suf[k + 1]);
      for (MoleculeId m = 0; m < molecules.size(); ++m) {
        if (molecules[m].latency >= current) continue;  // not an improvement
        // |excl ∪ candidate| — the reference's trial determinant, O(dim).
        const unsigned trial_det = join_determinant(scratch.excl, molecules[m].atoms);
        if (trial_det > budget) continue;  // unaffordable
        const unsigned growth = trial_det >= sup_now_det ? trial_det - sup_now_det : 0;
        trials.push_back(SelectionTrial{si, m, trial_det, growth, current - molecules[m].latency});
      }
    }
    const std::uint32_t pick = rounds.close_round(request.expected_executions);
    if (pick == kNoPick) break;
    const SelectionTrial& best = trials[begin + pick];
    chosen[best.si] = best.mol;
    sup_now_det = best.trial_det;
  }
  if (request.record != nullptr) request.record->complete = true;

  std::vector<SiRef> selection;
  for (SiId si : request.hot_spot_sis)
    if (chosen[si] != kSoftwareMolecule) selection.push_back(SiRef{si, chosen[si]});
  RISPP_CHECK(selection_atom_count(set, selection) <= request.container_count);
  return selection;
}

Cycles best_case_latency(const SpecialInstructionSet& set, SiId si,
                         unsigned container_count) {
  const SpecialInstruction& s = set.si(si);
  Cycles best = s.software_latency;
  for (const MoleculeImpl& m : s.molecules) {
    if (m.atoms.determinant() > container_count) continue;
    if (m.latency < best) best = m.latency;
  }
  return best;
}

}  // namespace rispp
