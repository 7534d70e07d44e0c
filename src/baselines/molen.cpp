#include "baselines/molen.h"

#include "base/check.h"
#include "hw/eviction.h"
#include "sched/schedule.h"
#include "select/selection.h"

namespace rispp {

template <LoadPolicy kPolicy>
SingleImplementationBackend<kPolicy>::SingleImplementationBackend(
    const SpecialInstructionSet* set, std::size_t hot_spot_count, const BaselineConfig& config)
    : Base(set, hot_spot_count),
      fabric_(config.container_count, config.bitstream),
      demand_(set->atom_type_count()),
      soft_demand_(set->atom_type_count()),
      hot_spot_sup_(kPolicy == LoadPolicy::kPrefetchAtEntry ? hot_spot_count : 0,
                    Molecule(set->atom_type_count())),
      selected_molecule_(set->si_count(), kSoftwareMolecule) {
  fabric_.bind(0, &set->library(), set->atom_type_count(), &type_last_used_);
  cf_ = &fabric_.containers(0);
  inflight_ = &fabric_.inflight(0);
  if constexpr (kFirstUseReopen) reopen_.assign(set->si_count(), 0);
}

template <LoadPolicy kPolicy>
void SingleImplementationBackend<kPolicy>::seed_forecast(HotSpotId hs, SiId si,
                                                         std::uint64_t expected) {
  monitor_.seed(hs, si, expected);
}

template <LoadPolicy kPolicy>
void SingleImplementationBackend<kPolicy>::enter_hot_spot(const WorkloadTrace& trace,
                                                          std::size_t instance, Cycles now) {
  advance_reconfig(now);

  const HotSpotId hs = trace.instances[instance].hot_spot;
  monitor_.begin_hot_spot(hs);
  const auto& forecast = monitor_.forecast(hs);

  // Same accelerators as RISPP: identical selection under the same budget.
  SelectionRequest sel_req;
  sel_req.set = set_;
  sel_req.hot_spot_sis = trace.hot_spots[hs].sis;
  sel_req.expected_executions = forecast;
  sel_req.container_count = cf_->active();
  const std::vector<SiRef> selection = select_molecules(sel_req);

  pending_loads_.clear();
  demand_ = Molecule(set_->atom_type_count());
  std::fill(selected_molecule_.begin(), selected_molecule_.end(), kSoftwareMolecule);
  for (const SiRef& s : selection) {
    join_into(demand_, set_->si(s.si).molecule(s.mol).atoms);
    selected_molecule_[s.si] = s.mol;
  }
  cache_valid_ = false;

  if constexpr (kPolicy == LoadPolicy::kFirstUse) {
    // No prefetch: each selected SI requests its configuration at first use.
    std::fill(reopen_.begin(), reopen_.end(), 0);
    for (const SiRef& s : selection) reopen_[s.si] = 1;
  } else {
    // Prefetch: load each selected molecule completely, most important SI
    // first.
    ScheduleRequest order_req;
    order_req.set = set_;
    order_req.selected = selection;
    order_req.available = cf_->ready_atoms();
    order_req.expected_executions = forecast;
    Molecule accumulated = cf_->ready_atoms();
    for (const SiRef& s : by_importance(order_req)) {
      const Molecule& atoms = set_->si(s.si).molecule(s.mol).atoms;
      for (AtomTypeId t : unit_decomposition(missing(accumulated, atoms)))
        pending_loads_.push_back(t);
      join_into(accumulated, atoms);
    }

    hot_spot_sup_[hs] = demand_;
    soft_demand_ = Molecule(set_->atom_type_count());
    for (HotSpotId other = 0; other < hot_spot_sup_.size(); ++other)
      if (other != hs) join_into(soft_demand_, hot_spot_sup_[other]);
    start_pending_loads(now);
  }
}

template <LoadPolicy kPolicy>
void SingleImplementationBackend<kPolicy>::request_configuration(SiId si) {
  if (!reopen_[si]) return;  // unselected, or already requested
  reopen_[si] = 0;
  // Queue the atoms this SI's single implementation still misses, counting
  // what earlier requests already queued.
  Molecule accumulated = cf_->ready_atoms();
  for (AtomTypeId t : pending_loads_) ++accumulated[t];
  if (inflight_->has_value()) ++accumulated[(*inflight_)->type];
  const Molecule& atoms = set_->si(si).molecule(selected_molecule_[si]).atoms;
  for (AtomTypeId t : unit_decomposition(missing(accumulated, atoms)))
    pending_loads_.push_back(t);
}

template <LoadPolicy kPolicy>
void SingleImplementationBackend<kPolicy>::advance_reconfig(Cycles now) {
  while (inflight_->has_value() && (*inflight_)->finishes_at <= now) {
    const auto done = fabric_.retire(0, now);
    cf_->complete_load(done.container);
    cache_valid_ = false;
    start_pending_loads(done.finishes_at);
  }
  if (!inflight_->has_value()) start_pending_loads(now);
}

template <LoadPolicy kPolicy>
void SingleImplementationBackend<kPolicy>::start_pending_loads(Cycles now) {
  while (!inflight_->has_value() && !pending_loads_.empty()) {
    const AtomTypeId type = pending_loads_.front();
    const auto victim = pick_victim(*cf_, demand_, soft_demand_, type_last_used_);
    if (!victim.has_value()) return;
    // The device's only tenant gets the port whenever its last load retired.
    const bool granted = !fabric_.try_start(0, type, *victim, now);
    RISPP_CHECK(granted);
    pending_loads_.pop_front();
    cf_->begin_load(*victim, type);
    cache_valid_ = false;
  }
}

template <LoadPolicy kPolicy>
void SingleImplementationBackend<kPolicy>::refresh_cache() {
  const Molecule& ready = cf_->ready_atoms();
  for (SiId si = 0; si < set_->si_count(); ++si) {
    const SpecialInstruction& s = set_->si(si);
    const MoleculeId mol = selected_molecule_[si];
    // No upgrade hierarchy: the single implementation is usable only when
    // complete; no intermediate molecule may serve the SI. Executions
    // LRU-stamp its atoms only when its latency differs from the trap's.
    const bool usable = mol != kSoftwareMolecule && leq(s.molecule(mol).atoms, ready);
    cached_latency_[si] = usable ? s.molecule(mol).latency : s.software_latency;
    cached_molecule_[si] =
        usable && cached_latency_[si] != s.software_latency ? mol : kSoftwareMolecule;
  }
  cache_valid_ = true;
}

template <LoadPolicy kPolicy>
Cycles SingleImplementationBackend<kPolicy>::open_window(Cycles now, SiId si) {
  advance_reconfig(now);
  if constexpr (kFirstUseReopen) {
    request_configuration(si);  // demand loading at first use
    start_pending_loads(now);
  }
  if (!cache_valid_) refresh_cache();
  return inflight_->has_value() ? (*inflight_)->finishes_at : kMaxCycles;
}

template class PortWindowBackend<MolenBackend>;
template class PortWindowBackend<OneChipBackend>;
template class SingleImplementationBackend<LoadPolicy::kPrefetchAtEntry>;
template class SingleImplementationBackend<LoadPolicy::kFirstUse>;

}  // namespace rispp
