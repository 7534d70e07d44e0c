#include "baselines/molen.h"

#include "base/check.h"
#include "hw/eviction.h"
#include "sched/schedule.h"

namespace rispp {

MolenBackend::MolenBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                           const MolenConfig& config)
    : PortWindowBackend(set, hot_spot_count),
      config_(config),
      containers_(config.container_count, set->atom_type_count()),
      port_(&set->library(), config.bitstream),
      demand_(set->atom_type_count()),
      soft_demand_(set->atom_type_count()),
      hot_spot_sup_(hot_spot_count, Molecule(set->atom_type_count())),
      selected_molecule_(set->si_count(), kSoftwareMolecule) {}

void MolenBackend::seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected) {
  monitor_.seed(hs, si, expected);
}

void MolenBackend::on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                                     Cycles now) {
  advance_reconfig(now);

  const HotSpotId hs = trace.instances[instance].hot_spot;
  const HotSpotInfo& info = trace.hot_spots[hs];
  monitor_.begin_hot_spot(hs);
  const auto& forecast = monitor_.forecast(hs);

  // Same accelerators as RISPP: identical selection under the same budget.
  SelectionRequest sel_req;
  sel_req.set = set_;
  sel_req.hot_spot_sis = info.sis;
  sel_req.expected_executions = forecast;
  sel_req.container_count = containers_.size();
  selection_ = select_molecules(sel_req);

  // Prefetch: load each selected molecule completely, most important SI
  // first (the explicit reconfiguration instructions of the Molen model).
  ScheduleRequest order_req;
  order_req.set = set_;
  order_req.selected = selection_;
  order_req.available = containers_.ready_atoms();
  order_req.expected_executions = forecast;
  const std::vector<SiRef> order = by_importance(order_req);

  pending_loads_.clear();
  Molecule accumulated = containers_.ready_atoms();
  for (const SiRef& s : order) {
    const Molecule& atoms = set_->si(s.si).molecule(s.mol).atoms;
    for (AtomTypeId t : unit_decomposition(missing(accumulated, atoms)))
      pending_loads_.push_back(t);
    accumulated = join(accumulated, atoms);
  }

  demand_ = Molecule(set_->atom_type_count());
  for (const SiRef& s : selection_)
    demand_ = join(demand_, set_->si(s.si).molecule(s.mol).atoms);
  hot_spot_sup_[hs] = demand_;
  soft_demand_ = Molecule(set_->atom_type_count());
  for (HotSpotId other = 0; other < hot_spot_sup_.size(); ++other)
    if (other != hs) soft_demand_ = join(soft_demand_, hot_spot_sup_[other]);

  std::fill(selected_molecule_.begin(), selected_molecule_.end(), kSoftwareMolecule);
  for (const SiRef& s : selection_) selected_molecule_[s.si] = s.mol;
  cache_valid_ = false;

  start_pending_loads(now);
}

void MolenBackend::advance_reconfig(Cycles now) {
  while (port_.busy() && port_.inflight()->finishes_at <= now) {
    const auto done = port_.retire(now);
    containers_.complete_load(done.container);
    cache_valid_ = false;
    start_pending_loads(done.finishes_at);
  }
  if (!port_.busy()) start_pending_loads(now);
}

void MolenBackend::start_pending_loads(Cycles now) {
  while (!port_.busy() && !pending_loads_.empty()) {
    const AtomTypeId type = pending_loads_.front();
    const auto victim = pick_victim(containers_, demand_, soft_demand_, type_last_used_);
    if (!victim.has_value()) return;
    pending_loads_.pop_front();
    containers_.begin_load(*victim, type);
    cache_valid_ = false;
    port_.start(type, *victim, now);
  }
}

void MolenBackend::refresh_cache() {
  const Molecule& ready = containers_.ready_atoms();
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

Cycles MolenBackend::open_window(Cycles now, SiId) {
  advance_reconfig(now);
  if (!cache_valid_) refresh_cache();
  return port_.busy() ? port_.inflight()->finishes_at : kMaxCycles;
}

template class PortWindowBackend<MolenBackend>;

}  // namespace rispp
