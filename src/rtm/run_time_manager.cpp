#include "rtm/run_time_manager.h"

#include <algorithm>
#include <chrono>

#include "base/check.h"
#include "base/clock.h"
#include "base/log.h"
#include "base/metrics.h"
#include "hw/eviction.h"

namespace rispp {

namespace {

/// Entry bound of an RTM's private memo; past it the least-recently-used
/// decision is evicted (misses recompute, so any bound stays bit-exact).
/// Steady-state workloads sit far below it.
constexpr std::size_t kPrivateMemoCapacity = 4096;

}  // namespace

std::uint64_t rtm_domain_digest(const RtmConfig& config) {
  // Seeded with an arbitrary odd constant so digest 0 never collides with
  // "no digest".
  return fingerprint_mix(0x9e3779b97f4a7c15ull,
                         static_cast<std::uint64_t>(config.forecast_mode));
}

RunTimeManager::RunTimeManager(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                               const RtmConfig& config)
    : set_(set),
      config_(config),
      monitor_(hot_spot_count, set->si_count()),
      seeds_(hot_spot_count, std::vector<std::uint64_t>(set->si_count(), 0)),
      demand_(set->atom_type_count()),
      soft_demand_(set->atom_type_count()),
      hot_spot_sup_(hot_spot_count, Molecule(set->atom_type_count())),
      successor_(hot_spot_count, 0),
      last_forecast_(hot_spot_count),
      last_selection_(hot_spot_count),
      entry_seen_(hot_spot_count, false),
      prefetch_demand_(set->atom_type_count()),
      type_last_used_(set->atom_type_count(), 0),
      cached_molecule_(set->si_count(), kSoftwareMolecule),
      upgrade_lane_(trace_new_lane()),
      span_step_gen_(set->si_count(), 0),
      span_step_(set->si_count(), 0),
      span_touch_gen_(set->si_count(), 0),
      span_last_start_(set->si_count(), 0) {
  RISPP_CHECK(config_.scheduler != nullptr);
  trace_name_lane(TraceTrack::kExecutor, upgrade_lane_, "SI upgrades");
  // Without a shared device the RTM owns the paper's: one tenant, every
  // container, the single port.
  if (!config_.arbiter) {
    config_.arbiter = &own_fabric_.emplace(config_.container_count, config_.bitstream);
    config_.tenant = 0;
  }
  config_.arbiter->bind(config_.tenant, &set_->library(), set_->atom_type_count(),
                        &type_last_used_);
  cf_ = &config_.arbiter->containers(config_.tenant);
  inflight_ = &config_.arbiter->inflight(config_.tenant);
  if (config_.payback_horizon > 0)
    payback_cycles_per_atom_ =
        cycles_from_us(config_.bitstream.average_reconfig_us(set_->library())) /
        config_.payback_horizon;
  // A shared memo keys every decision on this RTM's domain. The RTM's own
  // memo serves it alone, so its keys use domain 0 unregistered — the SI-set
  // fingerprint would cost more than building the rest of the RTM.
  if (config_.decision_memo)
    memo_domain_ = config_.decision_memo->register_domain(
        fingerprint(*set_), config_.scheduler->name(), payback_cycles_per_atom_,
        rtm_domain_digest(config_));
  else
    config_.decision_memo =
        &own_memo_.emplace(kPrivateMemoCapacity, 1, DecisionMemo::Scope::kPrivate);
}

void RunTimeManager::seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected) {
  RISPP_CHECK_MSG(!seen_any_hot_spot_,
                  "seed_forecast is a design-time profile: seeding after the first "
                  "hot-spot entry would silently lose to the adapted forecast");
  RISPP_CHECK(hs < seeds_.size() && si < seeds_[hs].size());
  RISPP_CHECK_MSG(seeds_[hs][si] == 0, "re-seeding forecast for hot spot "
                                           << hs << ", SI " << si
                                           << ": a profile has one value per pair");
  monitor_.seed(hs, si, expected);
  seeds_[hs][si] = expected;
}

void RunTimeManager::on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                                       Cycles now) {
  advance_reconfig(now);

  const HotSpotId hs = trace.instances[instance].hot_spot;
  const HotSpotInfo& info = trace.hot_spots[hs];
  // First-order successor prediction for prefetching.
  if (seen_any_hot_spot_) successor_[current_hot_spot_] = hs;
  current_hot_spot_ = hs;
  seen_any_hot_spot_ = true;
  prefetch_computed_ = false;
  prefetch_loads_.clear();
  monitor_.begin_hot_spot(hs);

  const std::vector<std::uint64_t>* forecast = nullptr;
  switch (config_.forecast_mode) {
    case ForecastMode::kMonitored:
      forecast = &monitor_.forecast(hs);
      break;
    case ForecastMode::kStaticSeeds:
      forecast = &seeds_[hs];
      break;
    case ForecastMode::kOracle:
      oracle_forecast_.assign(set_->si_count(), 0);
      for (SiId si : trace.instances[instance].executions) ++oracle_forecast_[si];
      forecast = &oracle_forecast_;
      break;
  }

  // Report the forecast mass (the benefit signal) to the arbiter, which may
  // rebalance quotas under contention — so read the budget only after.
  std::uint64_t mass = 0;
  for (SiId si : info.sis) mass += (*forecast)[si];
  config_.arbiter->on_decision_point(config_.tenant, mass, now);

  // III) determine re-loading decisions: selection, then scheduling (memoized
  // — monitored forecasts converge after warm-up, so the steady state of a
  // long replay is pure cache hits).
  const DecisionMemo::Decision& decision = decide(info.sis, *forecast, cf_->active());
  selection_ = decision.selection;

  // Mispredict → reconfig churn (ROADMAP traffic-robustness metric): the
  // forecast drifted since this hot spot's previous entry AND that drift
  // flipped the selection, so the loads below are churn the forecaster
  // caused. Oracle forecasts track the true workload — a change there is a
  // real workload shift, not a mispredict.
  if (config_.forecast_mode != ForecastMode::kOracle && entry_seen_[hs] &&
      *forecast != last_forecast_[hs] && decision.selection != last_selection_[hs]) {
    static MetricCounter& mispredicts = metric_counter("rtm.forecast.mispredicts");
    mispredicts.add();
    static MetricHistogram& churn =
        metric_histogram("rtm.forecast.mispredict_reconfig_loads");
    churn.record(decision.loads.size());
  }
  entry_seen_[hs] = true;
  last_forecast_[hs] = *forecast;
  last_selection_[hs] = decision.selection;

  // The new hot spot overrides whatever the previous one still wanted to
  // load (the in-flight atom, if any, completes normally).
  pending_loads_.assign(decision.loads.begin(), decision.loads.end());
  demand_.assign_zero(set_->atom_type_count());
  for (const SiRef& s : selection_)
    join_into(demand_, set_->si(s.si).molecule(s.mol).atoms);
  hot_spot_sup_[hs] = demand_;
  soft_demand_.assign_zero(set_->atom_type_count());
  for (HotSpotId other = 0; other < hot_spot_sup_.size(); ++other)
    if (other != hs) join_into(soft_demand_, hot_spot_sup_[other]);

  RISPP_DEBUG("hot spot " << info.name << " @" << now << ": " << selection_.size()
                          << " molecules selected, " << pending_loads_.size()
                          << " atom loads scheduled by " << config_.scheduler->name());
  start_pending_loads(now);
}

void RunTimeManager::on_hot_spot_exit(Cycles) { monitor_.end_hot_spot(); }

std::optional<Cycles> RunTimeManager::fabric_stall_bound(Cycles now) const {
  if (inflight_->has_value()) return (*inflight_)->finishes_at;
  // After advance_reconfig a standing denial's hint is strictly in the
  // future (the arbiter hints at least one load duration ahead), so the
  // fast-forward windows always make progress.
  if (denied_until_ > now) return denied_until_;
  return std::nullopt;
}

void RunTimeManager::sync_fabric() {
  const std::uint64_t gen = config_.arbiter->fabric_generation(config_.tenant);
  if (gen != fabric_gen_seen_) {
    // A quota rebalance evicted ready atoms behind our back.
    fabric_gen_seen_ = gen;
    if (cache_valid_) cache_event_now_ = config_.arbiter->last_fabric_event(config_.tenant);
    cache_valid_ = false;
  }
}

void RunTimeManager::advance_reconfig(Cycles now) {
  sync_fabric();
  while (inflight_->has_value() && (*inflight_)->finishes_at <= now) {
    const auto done = config_.arbiter->retire(config_.tenant, now);
    cf_->complete_load(done.container);
    if (cache_valid_) cache_event_now_ = done.finishes_at;
    cache_valid_ = false;
    start_pending_loads(done.finishes_at);
  }
  if (!inflight_->has_value()) start_pending_loads(now);
}

bool RunTimeManager::start_load(AtomTypeId type, const Molecule& hard_demand, Cycles now) {
  // Ask for the port before scanning for a victim: on the contended retry
  // path nearly every ask is a denial, and precheck performs the identical
  // denial bookkeeping without the O(containers) victim scan.
  if (const auto hint = config_.arbiter->precheck(config_.tenant, type, now)) {
    denied_until_ = *hint;
    return false;
  }
  const auto victim = pick_victim(*cf_, hard_demand, soft_demand_, type_last_used_);
  if (!victim.has_value()) {
    // Every container is pinned (in-flight loads); retry at the next
    // reconfiguration event.
    RISPP_DEBUG("load of atom type " << type << " deferred: no victim container");
    return false;
  }
  // A clean precheck guarantees the grant at the same `now`.
  const bool granted = !config_.arbiter->try_start(config_.tenant, type, *victim, now);
  RISPP_CHECK(granted);
  denied_until_ = 0;
  cf_->begin_load(*victim, type);
  if (cache_valid_) cache_event_now_ = now;
  cache_valid_ = false;  // eviction may have removed a ready atom
  return true;
}

void RunTimeManager::start_pending_loads(Cycles now) {
  while (!inflight_->has_value() && !pending_loads_.empty()) {
    if (!start_load(pending_loads_.front(), demand_, now)) return;
    pending_loads_.pop_front();
  }

  // Port drained the current schedule: optionally prefetch the predicted
  // next hot spot's atoms. The current demand stays hard-pinned, so
  // prefetching can only consume containers the current hot spot spares.
  if (config_.enable_prefetch && !inflight_->has_value() && pending_loads_.empty()) {
    if (!prefetch_computed_) compute_prefetch();
    if (!prefetch_loads_.empty()) {
      // Neither demand changes while the loads drain; join once.
      Molecule hard = demand_;
      join_into(hard, prefetch_demand_);
      while (!inflight_->has_value() && !prefetch_loads_.empty()) {
        if (!start_load(prefetch_loads_.front(), hard, now)) return;
        prefetch_loads_.pop_front();
      }
    }
  }

  // Both queues drained: nothing left to ask the port for, so any standing
  // claim from an earlier denial lapses (other tenants stop yielding to us).
  if (pending_loads_.empty() && prefetch_loads_.empty()) {
    config_.arbiter->withdraw_claim(config_.tenant);
    denied_until_ = 0;
  }
}

void RunTimeManager::compute_prefetch() {
  prefetch_computed_ = true;
  if (!seen_any_hot_spot_) return;
  const HotSpotId next = successor_[current_hot_spot_];
  if (next == current_hot_spot_) return;  // no prediction yet

  // Select and schedule for the predicted hot spot against what would be
  // resident, but never count on evicting current-demand atoms: the budget
  // is the containers minus the current selection's sup.
  const unsigned budget =
      cf_->active() > demand_.determinant()
          ? cf_->active() - demand_.determinant()
          : 0;
  if (budget == 0) return;

  // Which forecast predicts hot spot `next`'s executions:
  //  - kMonitored: the monitor's adapted forecast (the paper's system);
  //  - kStaticSeeds: the design-time profile, never adapted;
  //  - kOracle: the oracle only knows the *current* instance's exact counts
  //    (it reads trace.instances[instance].executions); no future instance
  //    of `next` has been reached yet, so oracle prefetch intentionally
  //    falls back to the monitored forecast rather than pretending to know
  //    counts it cannot have.
  const std::vector<std::uint64_t>* forecast = nullptr;
  switch (config_.forecast_mode) {
    case ForecastMode::kMonitored:
      forecast = &monitor_.forecast(next);
      break;
    case ForecastMode::kStaticSeeds:
      forecast = &seeds_[next];
      break;
    case ForecastMode::kOracle:
      forecast = &monitor_.forecast(next);
      break;
  }

  // Hot-spot SI lists live in the trace; we reconstruct them from the
  // forecast: any SI with a nonzero forecast for `next` belongs to it.
  // The prefetch selection may also use atoms the current hot spot already
  // holds (sharing), so the effective budget is |sup(next) ∪ demand| <= ACs;
  // we approximate by selecting under the remaining budget.
  prefetch_sis_.clear();
  for (SiId si = 0; si < set_->si_count(); ++si)
    if ((*forecast)[si] > 0) prefetch_sis_.push_back(si);
  if (prefetch_sis_.empty()) return;
  const DecisionMemo::Decision& decision = decide(prefetch_sis_, *forecast, budget);
  if (decision.selection.empty()) return;

  prefetch_demand_.assign_zero(set_->atom_type_count());
  for (const SiRef& s : decision.selection)
    join_into(prefetch_demand_, set_->si(s.si).molecule(s.mol).atoms);
  prefetch_loads_.assign(decision.loads.begin(), decision.loads.end());
  RISPP_DEBUG("prefetching " << prefetch_loads_.size() << " atoms for hot spot " << next);
}

bool RunTimeManager::entry_is_port_silent(const WorkloadTrace& trace,
                                          std::size_t instance) const {
  // Only sound while quotas are frozen: a pending rebalance could shrink cf_
  // between this probe and the entry it predicts, invalidating the budget
  // baked into the key below.
  if (config_.arbiter->rebalance_possible()) return false;
  // Prefetch keeps asking the port after the schedule drains; the oracle
  // forecast is rebuilt per instance from the trace, so the probe cannot
  // rebuild the entry's key; with the memo off the entry never consults it.
  // All three fall back to normal stepping.
  if (config_.enable_prefetch || config_.forecast_mode == ForecastMode::kOracle ||
      !config_.enable_decision_cache)
    return false;
  // Anything queued or in flight makes the entry port-active by definition.
  if (!reconfig_idle()) return false;

  const HotSpotId hs = trace.instances[instance].hot_spot;
  // The forecast the entry will read. monitor_.forecast() is a plain getter
  // (folding happens at end_hot_spot, which already ran for the previous
  // instance), so this equals what on_hot_spot_entry sees.
  const std::vector<std::uint64_t>& forecast = config_.forecast_mode == ForecastMode::kMonitored
                                                   ? monitor_.forecast(hs)
                                                   : seeds_[hs];
  const DecisionMemo::Key key{memo_domain_, trace.hot_spots[hs].sis, forecast,
                              cf_->ready_atoms(), cf_->active()};
  return config_.decision_memo->peek(key, probe_) && probe_.loads.empty();
}

const DecisionMemo::Decision& RunTimeManager::decide(const std::vector<SiId>& sis,
                                                     const std::vector<std::uint64_t>& forecast,
                                                     unsigned budget) {
  static MetricCounter& hit_metric = metric_counter("rtm.decision_cache.hits");
  static MetricCounter& miss_metric = metric_counter("rtm.decision_cache.misses");
  const DecisionMemo::Key key{memo_domain_, sis, forecast, cf_->ready_atoms(), budget};
  if (config_.enable_decision_cache &&
      config_.decision_memo->lookup(key, config_.session_id, decision_)) {
    ++decision_cache_hits_;
    hit_metric.add();
    if (trace_enabled())
      trace_counter_now(TraceTrack::kRtm, "decision cache hits",
                        static_cast<double>(decision_cache_hits_));
    return decision_;
  }
  ++decision_cache_misses_;
  miss_metric.add();

  // The selection→schedule pipeline is the expensive path worth seeing on
  // the timeline; memo hits above return in nanoseconds and stay silent.
  trace_begin_now(TraceTrack::kRtm, "decide");
  compute_decision(sis, forecast, budget, key.ready, decision_);
  trace_end_now(TraceTrack::kRtm, "decide");
  if (trace_enabled())
    trace_counter_now(TraceTrack::kRtm, "decision cache misses",
                      static_cast<double>(decision_cache_misses_));
  if (config_.enable_decision_cache)
    config_.decision_memo->insert(key, config_.session_id, decision_);
  return decision_;
}

void RunTimeManager::compute_decision(const std::vector<SiId>& sis,
                                      const std::vector<std::uint64_t>& forecast,
                                      unsigned budget, const Molecule& ready,
                                      DecisionMemo::Decision& out) {
  // Wall-clock cost of the uncached selection→schedule pipeline; cache hits
  // never get here, so this is the tail the memo layers are hiding.
  const auto started = std::chrono::steady_clock::now();
  SelectionRequest sel_req;
  sel_req.set = set_;
  sel_req.hot_spot_sis = sis;
  sel_req.expected_executions = forecast;
  sel_req.container_count = budget;
  out.selection = select_molecules(sel_req);

  ScheduleRequest sched_req;
  sched_req.set = set_;
  sched_req.selected = out.selection;
  sched_req.available = ready;
  sched_req.expected_executions = forecast;
  sched_req.payback_cycles_per_atom = payback_cycles_per_atom_;
  Schedule schedule = config_.scheduler->schedule(sched_req);
  out.loads = std::move(schedule.loads);
  static MetricHistogram& latency = metric_histogram("rtm.decision_latency_ns");
  latency.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count()));
}

void RunTimeManager::refresh_cache() {
  const Molecule& ready = cf_->ready_atoms();
  const bool traced = trace_enabled();
  if (traced && traced_si_names_.empty()) {
    traced_si_names_.reserve(set_->si_count());
    for (SiId si = 0; si < set_->si_count(); ++si)
      traced_si_names_.push_back(trace_intern(set_->si(si).name));
  }
  std::uint64_t upgrades = 0;
  for (SiId si = 0; si < set_->si_count(); ++si) {
    const MoleculeId mol = set_->fastest_available(si, ready);
    if (mol != cached_molecule_[si]) {
      // The gradual-upgrade property (§3.1): count latency-improving
      // transitions (trap → slow molecule → selected molecule). Downgrades
      // (an eviction took a ready atom) change the cache but are not
      // upgrades. cache_event_now_ holds the port event that invalidated
      // the cache, i.e. when the transition actually happened.
      if (set_->si(si).latency(mol) < set_->si(si).latency(cached_molecule_[si])) {
        ++upgrades;
        if (traced)
          trace_instant(TraceTrack::kExecutor, upgrade_lane_, traced_si_names_[si],
                        us_from_cycles(cache_event_now_));
      }
      cached_molecule_[si] = mol;
    }
  }
  if (upgrades > 0) {
    static MetricCounter& upgrade_metric = metric_counter("rtm.si_upgrades");
    upgrade_metric.add(upgrades);
  }
  cache_valid_ = true;
}

Cycles RunTimeManager::current_latency(SiId si) const {
  return set_->fastest_available_latency(si, cf_->ready_atoms());
}

Cycles RunTimeManager::si_execution_latency(SiId si, Cycles now) {
  advance_reconfig(now);
  if (!cache_valid_) refresh_cache();

  // I) control the SI execution: composed molecule or trap.
  const MoleculeId mol = cached_molecule_[si];

  // II) observe.
  monitor_.record_execution(si);

  if (mol != kSoftwareMolecule) {
    // LRU stamps per used atom type (coarse but O(#types of this molecule)).
    const Molecule& atoms = set_->si(si).molecule(mol).atoms;
    for (std::size_t t = 0; t < atoms.dimension(); ++t)
      if (atoms[t] != 0) type_last_used_[t] = now;
  }
  return set_->si(si).latency(mol);
}

Cycles RunTimeManager::si_execution_run_latency(SiId si, std::uint64_t count, Cycles now,
                                                Cycles per_execution_overhead,
                                                std::vector<LatencySegment>& segments) {
  // Fast-forward: an SI's latency only changes when an atom load completes on
  // the reconfiguration port (complete_load / the evictions of the loads it
  // chains), so all executions starting before the in-flight load's finish
  // time observe the same latency. Each iteration advances state to `now`,
  // reads the current latency, and jumps over every execution that fits
  // before the next port completion — O(port events), not O(count).
  Cycles total = 0;
  while (count > 0) {
    advance_reconfig(now);
    if (!cache_valid_) refresh_cache();
    const MoleculeId mol = cached_molecule_[si];
    const Cycles latency = set_->si(si).latency(mol);
    const Cycles step = latency + per_execution_overhead;
    std::uint64_t fit = count;
    const auto bound = fabric_stall_bound(now);
    if (bound.has_value() && step > 0) {
      const Cycles finish = *bound;  // > now after advance
      fit = std::min<std::uint64_t>(count, (finish - now + step - 1) / step);
    }
    monitor_.record_executions(si, fit);
    if (mol != kSoftwareMolecule) {
      // Only the last stamp of the stretch survives scalar replay.
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

Cycles RunTimeManager::si_execution_span(std::span<const SiRun> runs, Cycles now,
                                         Cycles per_execution_overhead) {
  // Between two reconfiguration-port completions *every* SI's latency is
  // fixed, so a whole port-quiet window replays with pure arithmetic: per
  // run one step lookup, one monitor bulk-add and one clock advance. LRU
  // stamps are materialized once per window (only the latest stamp of each
  // atom type survives scalar replay). Bit-exact with scalar replay.
  std::size_t i = 0;
  std::uint64_t remaining = 0;  // rest of runs[i] when a window split it
  while (i < runs.size()) {
    // Open a window: advance reconfiguration state to `now`.
    advance_reconfig(now);
    if (!cache_valid_) refresh_cache();
    const auto bound = fabric_stall_bound(now);
    const bool bounded = bound.has_value();
    const Cycles window_end = bounded ? *bound : 0;
    ++span_gen_;
    span_touched_.clear();

    while (i < runs.size()) {
      if (bounded && now >= window_end) break;  // next execution sees the load
      const SiId si = runs[i].si;
      const std::uint64_t count = remaining > 0 ? remaining : runs[i].count;
      if (span_step_gen_[si] != span_gen_) {
        span_step_gen_[si] = span_gen_;
        span_step_[si] =
            set_->si(si).latency(cached_molecule_[si]) + per_execution_overhead;
      }
      const Cycles step = span_step_[si];
      std::uint64_t fit = count;
      if (bounded && step > 0)
        fit = std::min<std::uint64_t>(count, (window_end - now + step - 1) / step);
      if (fit > 0) {
        monitor_.record_executions(si, fit);
        span_last_start_[si] = now + (fit - 1) * step;
        if (span_touch_gen_[si] != span_gen_) {
          span_touch_gen_[si] = span_gen_;
          span_touched_.push_back(si);
        }
        now += fit * step;
      }
      if (fit == count) {
        ++i;
        remaining = 0;
      } else {
        remaining = count - fit;
        break;  // window exhausted; reopen at the port completion
      }
    }

    // Close the window: materialize the LRU stamps while the molecules the
    // window executed with are still cached (the next advance_reconfig may
    // change them).
    for (const SiId si : span_touched_) {
      const MoleculeId mol = cached_molecule_[si];
      if (mol == kSoftwareMolecule) continue;
      const Cycles last = span_last_start_[si];
      const Molecule& atoms = set_->si(si).molecule(mol).atoms;
      for (std::size_t t = 0; t < atoms.dimension(); ++t)
        if (atoms[t] != 0 && type_last_used_[t] < last) type_last_used_[t] = last;
    }
  }
  return now;
}

}  // namespace rispp
