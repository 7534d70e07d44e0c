#include "baselines/onechip.h"

#include "base/check.h"
#include "hw/eviction.h"

namespace rispp {

OneChipBackend::OneChipBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                               const OneChipConfig& config)
    : PortWindowBackend(set, hot_spot_count),
      config_(config),
      containers_(config.container_count, set->atom_type_count()),
      port_(&set->library(), config.bitstream),
      demand_(set->atom_type_count()),
      selected_molecule_(set->si_count(), kSoftwareMolecule) {
  reopen_.assign(set->si_count(), 0);
}

void OneChipBackend::seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected) {
  monitor_.seed(hs, si, expected);
}

void OneChipBackend::on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                                       Cycles now) {
  advance_reconfig(now);

  const HotSpotId hs = trace.instances[instance].hot_spot;
  const HotSpotInfo& info = trace.hot_spots[hs];
  monitor_.begin_hot_spot(hs);
  const auto& forecast = monitor_.forecast(hs);

  // Same accelerators: identical selection under the same budget. But no
  // prefetch — configurations are requested lazily at first use.
  SelectionRequest sel_req;
  sel_req.set = set_;
  sel_req.hot_spot_sis = info.sis;
  sel_req.expected_executions = forecast;
  sel_req.container_count = containers_.size();
  selection_ = select_molecules(sel_req);

  pending_loads_.clear();
  std::fill(reopen_.begin(), reopen_.end(), 0);
  std::fill(selected_molecule_.begin(), selected_molecule_.end(), kSoftwareMolecule);
  for (const SiRef& s : selection_) {
    selected_molecule_[s.si] = s.mol;
    reopen_[s.si] = 1;  // not requested yet
  }

  demand_ = Molecule(set_->atom_type_count());
  for (const SiRef& s : selection_)
    demand_ = join(demand_, set_->si(s.si).molecule(s.mol).atoms);
  cache_valid_ = false;
}

void OneChipBackend::request_configuration(SiId si) {
  if (!reopen_[si]) return;  // unselected, or already requested
  reopen_[si] = 0;
  const MoleculeId mol = selected_molecule_[si];
  // Queue the atoms this SI's single implementation still misses, counting
  // what earlier requests already queued.
  Molecule accumulated = containers_.ready_atoms();
  for (AtomTypeId t : pending_loads_) ++accumulated[t];
  if (port_.busy()) ++accumulated[port_.inflight()->type];
  for (AtomTypeId t : unit_decomposition(missing(accumulated, set_->si(si).molecule(mol).atoms)))
    pending_loads_.push_back(t);
}

void OneChipBackend::advance_reconfig(Cycles now) {
  while (port_.busy() && port_.inflight()->finishes_at <= now) {
    const auto done = port_.retire(now);
    containers_.complete_load(done.container);
    cache_valid_ = false;
    start_pending_loads(done.finishes_at);
  }
  if (!port_.busy()) start_pending_loads(now);
}

void OneChipBackend::start_pending_loads(Cycles now) {
  while (!port_.busy() && !pending_loads_.empty()) {
    const AtomTypeId type = pending_loads_.front();
    const auto victim =
        pick_victim(containers_, demand_, Molecule(set_->atom_type_count()), type_last_used_);
    if (!victim.has_value()) return;
    pending_loads_.pop_front();
    containers_.begin_load(*victim, type);
    cache_valid_ = false;
    port_.start(type, *victim, now);
  }
}

void OneChipBackend::refresh_cache() {
  const Molecule& ready = containers_.ready_atoms();
  for (SiId si = 0; si < set_->si_count(); ++si) {
    const SpecialInstruction& s = set_->si(si);
    const MoleculeId mol = selected_molecule_[si];
    // Executions LRU-stamp the single implementation's atoms only when its
    // latency differs from the trap's.
    const bool usable = mol != kSoftwareMolecule && leq(s.molecule(mol).atoms, ready);
    cached_latency_[si] = usable ? s.molecule(mol).latency : s.software_latency;
    cached_molecule_[si] =
        usable && cached_latency_[si] != s.software_latency ? mol : kSoftwareMolecule;
  }
  cache_valid_ = true;
}

Cycles OneChipBackend::open_window(Cycles now, SiId si) {
  advance_reconfig(now);
  request_configuration(si);  // demand loading at first use
  start_pending_loads(now);
  if (!cache_valid_) refresh_cache();
  return port_.busy() ? port_.inflight()->finishes_at : kMaxCycles;
}

template class PortWindowBackend<OneChipBackend>;

}  // namespace rispp
