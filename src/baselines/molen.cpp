#include "baselines/molen.h"

#include "base/check.h"
#include "hw/eviction.h"
#include "sched/schedule.h"

namespace rispp {

MolenBackend::MolenBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                           const MolenConfig& config)
    : set_(set),
      config_(config),
      monitor_(hot_spot_count, set->si_count()),
      containers_(config.container_count, set->atom_type_count()),
      port_(&set->library(), config.bitstream),
      demand_(set->atom_type_count()),
      soft_demand_(set->atom_type_count()),
      hot_spot_sup_(hot_spot_count, Molecule(set->atom_type_count())),
      type_last_used_(set->atom_type_count(), 0),
      cached_latency_(set->si_count(), 0),
      selected_molecule_(set->si_count(), kSoftwareMolecule),
      span_step_(set->si_count(), 0),
      span_touch_gen_(set->si_count(), 0),
      span_last_start_(set->si_count(), 0) {}

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

void MolenBackend::on_hot_spot_exit(Cycles) { monitor_.end_hot_spot(); }

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
    const MoleculeId mol = selected_molecule_[si];
    // No upgrade hierarchy: the single implementation is usable only when
    // complete; no intermediate molecule may serve the SI.
    if (mol != kSoftwareMolecule && leq(set_->si(si).molecule(mol).atoms, ready))
      cached_latency_[si] = set_->si(si).molecule(mol).latency;
    else
      cached_latency_[si] = set_->si(si).software_latency;
  }
  cache_valid_ = true;
}

Cycles MolenBackend::si_execution_latency(SiId si, Cycles now) {
  advance_reconfig(now);
  if (!cache_valid_) refresh_cache();
  monitor_.record_execution(si);
  const MoleculeId mol = selected_molecule_[si];
  if (mol != kSoftwareMolecule &&
      cached_latency_[si] != set_->si(si).software_latency) {
    const Molecule& atoms = set_->si(si).molecule(mol).atoms;
    for (std::size_t t = 0; t < atoms.dimension(); ++t)
      if (atoms[t] != 0) type_last_used_[t] = now;
  }
  return cached_latency_[si];
}

Cycles MolenBackend::si_execution_run_latency(SiId si, std::uint64_t count, Cycles now,
                                              Cycles per_execution_overhead,
                                              std::vector<LatencySegment>& segments) {
  // Same fast-forward invariant as the RISPP RTM: the latency of an SI only
  // changes at reconfiguration-port completions, so a run advances in
  // O(port events).
  Cycles total = 0;
  while (count > 0) {
    advance_reconfig(now);
    if (!cache_valid_) refresh_cache();
    const Cycles latency = cached_latency_[si];
    const Cycles step = latency + per_execution_overhead;
    const std::uint64_t fit = executions_before(
        port_.busy() ? port_.inflight()->finishes_at : kMaxCycles, now, count, step);
    monitor_.record_executions(si, fit);
    const MoleculeId mol = selected_molecule_[si];
    if (mol != kSoftwareMolecule && latency != set_->si(si).software_latency) {
      const Cycles last_start = now + (fit - 1) * step;
      const Molecule& atoms = set_->si(si).molecule(mol).atoms;
      for (std::size_t t = 0; t < atoms.dimension(); ++t)
        if (atoms[t] != 0) type_last_used_[t] = last_start;
    }
    append_latency_segment(segments, fit, latency);
    total += fit * latency;
    now += fit * step;
    count -= fit;
  }
  return total;
}

Cycles MolenBackend::si_execution_span(std::span<const SiRun> runs, Cycles now,
                                       Cycles per_execution_overhead) {
  // Same port-quiet-window arithmetic as the RISPP RTM (see
  // RunTimeManager::si_execution_span): between two reconfiguration-port
  // completions every SI's latency is fixed, so a whole window replays with
  // one step lookup, one monitor bulk-add and one clock advance per run, and
  // only the run crossing the window end divides. LRU stamps are
  // materialized once per window. Bit-exact with scalar replay.
  std::size_t i = 0;
  std::uint64_t remaining = 0;  // rest of runs[i] when a window split it
  while (i < runs.size()) {
    advance_reconfig(now);
    if (!cache_valid_) refresh_cache();
    const Cycles window_end = port_.busy() ? port_.inflight()->finishes_at : kMaxCycles;
    ++span_gen_;
    span_touched_.clear();
    for (std::size_t si = 0; si < span_step_.size(); ++si)
      span_step_[si] = cached_latency_[si] + per_execution_overhead;

    while (i < runs.size() && now < window_end) {
      const SiId si = runs[i].si;
      const std::uint64_t count = remaining > 0 ? remaining : runs[i].count;
      const Cycles step = span_step_[si];
      const std::uint64_t fit = executions_before(window_end, now, count, step);
      monitor_.record_executions(si, fit);
      if (selected_molecule_[si] != kSoftwareMolecule &&
          cached_latency_[si] != set_->si(si).software_latency) {
        span_last_start_[si] = now + (fit - 1) * step;
        if (span_touch_gen_[si] != span_gen_) {
          span_touch_gen_[si] = span_gen_;
          span_touched_.push_back(si);
        }
      }
      now += fit * step;
      if (fit < count) {
        remaining = count - fit;
        break;  // window exhausted; reopen at the port completion
      }
      ++i;
      remaining = 0;
    }

    // Materialize the LRU stamps while the window's molecules are still
    // selected (the next advance_reconfig may refresh the cache).
    for (const SiId si : span_touched_) {
      const Cycles last = span_last_start_[si];
      const Molecule& atoms = set_->si(si).molecule(selected_molecule_[si]).atoms;
      for (std::size_t t = 0; t < atoms.dimension(); ++t)
        if (atoms[t] != 0 && type_last_used_[t] < last) type_last_used_[t] = last;
    }
  }
  return now;
}

}  // namespace rispp
