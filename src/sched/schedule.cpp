#include "sched/schedule.h"

#include <algorithm>

#include "base/check.h"

namespace rispp {

bool is_valid_schedule(const ScheduleRequest& request, const Schedule& schedule) {
  const SpecialInstructionSet& set = *request.set;
  std::vector<Molecule> selected_atoms;
  selected_atoms.reserve(request.selected.size());
  for (const SiRef& s : request.selected)
    selected_atoms.push_back(set.si(s.si).molecule(s.mol).atoms);
  const Molecule sup_m = sup(selected_atoms, set.atom_type_count());
  const Molecule budget = missing(request.available, sup_m);

  // (a) loads stay within the per-type budget.
  Molecule loaded(set.atom_type_count());
  for (AtomTypeId t : schedule.loads) {
    if (t >= set.atom_type_count()) return false;
    if (++loaded[t] > budget[t]) return false;
  }

  // (b) the selected performance level is reached for every SI.
  const Molecule final_atoms = [&] {
    Molecule a = request.available;
    for (std::size_t i = 0; i < a.dimension(); ++i)
      a[i] = static_cast<AtomCount>(a[i] + loaded[i]);
    return a;
  }();
  for (const SiRef& s : request.selected) {
    const Cycles target = set.si(s.si).molecule(s.mol).latency;
    if (set.fastest_available_latency(s.si, final_atoms) > target) return false;
  }

  // Steps must partition the load list.
  std::size_t covered = 0;
  for (const UpgradeStep& step : schedule.steps) {
    if (step.first_load != covered) return false;
    covered += step.load_count;
  }
  return covered == schedule.loads.size();
}

// One UpgradeState exists per AtomScheduler::schedule() call and they never
// nest, so a single per-thread slot recycles the vector capacity; a second
// live instance on the same thread (tests constructing states side by side)
// simply falls back to owning fresh vectors.
struct UpgradeScratch {
  std::vector<Cycles> best_latency;
  std::vector<SiRef> candidates;
  bool in_use = false;
};

namespace {
UpgradeScratch& upgrade_scratch() {
  thread_local UpgradeScratch scratch;
  return scratch;
}
}  // namespace

UpgradeState::UpgradeState(const ScheduleRequest& request)
    : request_(&request), set_(request.set), available_(request.available) {
  RISPP_CHECK(set_ != nullptr);
  RISPP_CHECK(available_.dimension() == set_->atom_type_count());
  RISPP_CHECK(request.expected_executions.size() == set_->si_count());

  UpgradeScratch& pool = upgrade_scratch();
  if (!pool.in_use) {
    pool.in_use = true;
    scratch_ = &pool;
    best_latency_ = std::move(pool.best_latency);
    candidates_ = std::move(pool.candidates);
  }

  // Figure 6 lines 6-9: initialize bestLatency from what is available now.
  best_latency_.assign(set_->si_count(), 0);
  for (SiId si = 0; si < set_->si_count(); ++si)
    best_latency_[si] = set_->fastest_available_latency(si, available_);

  // Figure 6 lines 1-5 / eq. (3): all smaller molecules of the selected SIs.
  smaller_candidates_into(*set_, request.selected, candidates_);
}

UpgradeState::~UpgradeState() {
  if (scratch_ != nullptr) {
    scratch_->best_latency = std::move(best_latency_);
    scratch_->candidates = std::move(candidates_);
    scratch_->in_use = false;
  }
}

void UpgradeState::clean() {
  if (!dirty_) return;
  clean_candidates(*set_, candidates_, available_, best_latency_);
  if (request_->payback_cycles_per_atom > 0) {
    std::erase_if(candidates_, [&](const SiRef& c) {
      const CandidateRow row = candidate_row(c);  // gain > 0 after cleaning
      const bool keep = pays_back(row, request_->expected_executions,
                                  request_->payback_cycles_per_atom);
      if (request_->record != nullptr) request_->record->payback.push_back({row, keep});
      return !keep;
    });
  }
  dirty_ = false;
}

const std::vector<SiRef>& UpgradeState::live_candidates() {
  clean();
  return candidates_;
}

void UpgradeState::commit(const SiRef& molecule) {
  const Molecule& atoms = set_->si(molecule.si).molecule(molecule.mol).atoms;
  missing_into(delta_, available_, atoms);
  RISPP_CHECK_MSG(delta_.determinant() > 0, "committing an already-available molecule");

  UpgradeStep step;
  step.molecule = molecule;
  step.first_load = schedule_.loads.size();
  append_unit_decomposition(delta_, schedule_.loads);
  step.load_count = schedule_.loads.size() - step.first_load;
  schedule_.steps.push_back(step);

  join_into(available_, atoms);
  best_latency_[molecule.si] =
      std::min(best_latency_[molecule.si], set_->latency(molecule));
  dirty_ = true;
}

bool UpgradeState::reached_selected(const SiRef& selected) const {
  return best_latency_[selected.si] <= set_->latency(selected);
}

std::uint64_t UpgradeState::expected_executions(SiId si) const {
  return request_->expected_executions[si];
}

unsigned UpgradeState::additional_atoms(const SiRef& candidate) const {
  const Molecule& atoms = set_->si(candidate.si).molecule(candidate.mol).atoms;
  return missing_determinant(available_, atoms);
}

CandidateRow UpgradeState::candidate_row(const SiRef& candidate) const {
  return CandidateRow{candidate, additional_atoms(candidate),
                      best_latency_[candidate.si] - set_->latency(candidate)};
}

bool pays_back(const CandidateRow& row, const std::vector<std::uint64_t>& expected,
               Cycles cycles_per_atom) {
  const auto saving = static_cast<__uint128_t>(expected[row.candidate.si]) * row.gain;
  const auto cost = static_cast<__uint128_t>(row.atoms) * cycles_per_atom;
  return saving > cost;
}

std::uint32_t pick_most_important(std::span<const CandidateRow> rows,
                                  const std::vector<std::uint64_t>& expected) {
  std::uint32_t best = kNoPick;
  std::uint64_t best_importance = 0;
  for (std::uint32_t i = 0; i < rows.size(); ++i) {
    const std::uint64_t importance = forecast_product(expected, rows[i].candidate.si, rows[i].gain);
    if (best == kNoPick || importance > best_importance ||
        (importance == best_importance && rows[i].candidate.si < rows[best].candidate.si)) {
      best = i;
      best_importance = importance;
    }
  }
  return best;
}

std::vector<SiRef> by_importance(const ScheduleRequest& request) {
  const SpecialInstructionSet& set = *request.set;
  thread_local PickLog<CandidateRow, pick_most_important> unrecorded;
  thread_local std::vector<CandidateRow> left;
  auto& rounds = request.record != nullptr ? request.record->importance : unrecorded;
  if (request.record == nullptr) rounds.clear();

  // Each selected SI's improvement over what is available now.
  left.clear();
  for (const SiRef& s : request.selected) {
    const Cycles now = set.fastest_available_latency(s.si, request.available);
    const Cycles then = set.latency(s);
    left.push_back(CandidateRow{s, 0, now > then ? now - then : 0});
  }
  // A selection sort: the most important SI left, position by position.
  std::vector<SiRef> order;
  order.reserve(left.size());
  while (!left.empty()) {
    rounds.rows().insert(rounds.rows().end(), left.begin(), left.end());
    const std::uint32_t pick = rounds.close_round(request.expected_executions);
    order.push_back(left[pick].candidate);
    left.erase(left.begin() + pick);
  }
  return order;
}

bool ScheduleRecord::replays(const std::vector<std::uint64_t>& expected,
                             Cycles payback_cycles_per_atom) const {
  if (!complete) return false;
  for (const PaybackVerdict& v : payback)
    if (pays_back(v.row, expected, payback_cycles_per_atom) != v.keep) return false;
  return importance.replays(expected) && benefit.replays(expected);
}

void ScheduleRecord::clear() {
  payback.clear();
  importance.clear();
  benefit.clear();
  complete = false;
}

}  // namespace rispp
