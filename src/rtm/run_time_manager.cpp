#include "rtm/run_time_manager.h"

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
    : PortWindowBackend(set, hot_spot_count),
      config_(config),
      seeds_(hot_spot_count, std::vector<std::uint64_t>(set->si_count(), 0)),
      demand_(set->atom_type_count()),
      soft_demand_(set->atom_type_count()),
      hot_spot_sup_(hot_spot_count, Molecule(set->atom_type_count())),
      successor_(hot_spot_count, 0),
      last_forecast_(hot_spot_count),
      last_selection_(hot_spot_count),
      entry_seen_(hot_spot_count, false),
      prefetch_demand_(set->atom_type_count()),
      cache_stale_(set->si_count(), 1),  // the first refresh derives every SI
      cache_ready_(set->atom_type_count()),
      upgrade_lane_(trace_new_lane()) {
  RISPP_CHECK(config_.scheduler != nullptr);
  // Registered up front, so snapshots carry the path store's counters even
  // when no miss replayed.
  static MetricCounter& replays [[maybe_unused]] =
      metric_counter("rtm.decision_cache.replays");
  static MetricCounter& divergences [[maybe_unused]] =
      metric_counter("rtm.decision_cache.replay_divergences");
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
  // A shared memo keys every decision on this RTM's domain, registered
  // under the SI set's fingerprint (memoized in the set, so a fleet of
  // sessions over one set hashes it once). The RTM's own memo serves it
  // alone, so its keys use domain 0 unregistered.
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

void RunTimeManager::enter_hot_spot(const WorkloadTrace& trace, std::size_t instance,
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
    case ForecastMode::kOracle: {
      const SiSummary& summary = trace.instances[instance].summary();
      oracle_forecast_.assign(set_->si_count(), 0);
      for (std::size_t slot = 0; slot < summary.size(); ++slot)
        oracle_forecast_[summary.si(slot)] = summary.total(slot);
      forecast = &oracle_forecast_;
      break;
    }
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

std::optional<Cycles> RunTimeManager::fabric_stall_bound(Cycles now) const {
  if (inflight_->has_value()) return (*inflight_)->finishes_at;
  // After advance_reconfig a standing denial's hint is strictly in the
  // future (the port's release, one load duration ahead, or kNoEvent when
  // the denial changed nothing), so the fast-forward windows always make
  // progress; a kNoEvent hint lets the window run to the instance's end.
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
  //    (its summary's totals); no future instance
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

const DecisionMemo::Decision& RunTimeManager::decide(const std::vector<SiId>& sis,
                                                     const std::vector<std::uint64_t>& forecast,
                                                     unsigned budget) {
  static MetricCounter& hit_metric = metric_counter("rtm.decision_cache.hits");
  static MetricCounter& miss_metric = metric_counter("rtm.decision_cache.misses");
  static MetricCounter& replay_metric = metric_counter("rtm.decision_cache.replays");
  static MetricCounter& divergence_metric =
      metric_counter("rtm.decision_cache.replay_divergences");
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

  // Wall-clock cost of a miss, replayed or computed; cache hits never get
  // here, so this is the tail the memo layers are hiding. The pipeline is
  // the expensive path worth seeing on the timeline; memo hits above return
  // in nanoseconds and stay silent.
  const auto started = std::chrono::steady_clock::now();
  trace_begin_now(TraceTrack::kRtm, "decide");
  // The path store (DESIGN §6.2): a key seen before with another forecast
  // re-runs its recorded picks, and only a differing pick costs the full
  // pipeline. With the memo off every decision runs in full, unrecorded.
  const auto compute = [&](DecisionPath* record) {
    compute_decision(sis, forecast, budget, key.ready, decision_, record);
  };
  if (!config_.enable_decision_cache) {
    compute(nullptr);
  } else {
    switch (paths_.answer(sis, key.ready, budget, forecast, payback_cycles_per_atom_,
                          decision_, compute)) {
      case PathStore::Answer::kReplayed:
        ++decision_cache_replays_;
        replay_metric.add();
        break;
      case PathStore::Answer::kDiverged:
        divergence_metric.add();
        break;
      case PathStore::Answer::kComputed:
        break;
    }
  }
  trace_end_now(TraceTrack::kRtm, "decide");
  static MetricHistogram& latency = metric_histogram("rtm.decision_latency_ns");
  latency.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count()));
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
                                      DecisionMemo::Decision& out, DecisionPath* record) {
  if (record != nullptr) record->clear();
  SelectionRequest sel_req;
  sel_req.set = set_;
  sel_req.hot_spot_sis = sis;
  sel_req.expected_executions = forecast;
  sel_req.container_count = budget;
  sel_req.record = record != nullptr ? &record->selection : nullptr;
  out.selection = select_molecules(sel_req);

  ScheduleRequest sched_req;
  sched_req.set = set_;
  sched_req.selected = out.selection;
  sched_req.available = ready;
  sched_req.expected_executions = forecast;
  sched_req.payback_cycles_per_atom = payback_cycles_per_atom_;
  sched_req.record = record != nullptr ? &record->schedule : nullptr;
  Schedule schedule = config_.scheduler->schedule(sched_req);
  out.loads = std::move(schedule.loads);
  if (record != nullptr) record->decision = out;
}

void RunTimeManager::refresh_cache() {
  const Molecule& ready = cf_->ready_atoms();
  // A port event (completed load, our own eviction, a quota rebalance) moves
  // one or a few types; an SI none of whose molecules needs a moved type
  // keeps its fastest available molecule.
  for (AtomTypeId t = 0; t < ready.dimension(); ++t)
    if (ready[t] != cache_ready_[t])
      for (const SiId si : set_->sis_using(t)) cache_stale_[si] = 1;
  cache_ready_.assign(ready.counts());

  const bool traced = trace_enabled();
  if (traced && traced_si_names_.empty()) {
    traced_si_names_.reserve(set_->si_count());
    for (SiId si = 0; si < set_->si_count(); ++si)
      traced_si_names_.push_back(trace_intern(set_->si(si).name));
  }
  std::uint64_t upgrades = 0;
  for (SiId si = 0; si < set_->si_count(); ++si) {
    if (!cache_stale_[si]) continue;
    cache_stale_[si] = 0;
    const MoleculeId mol = set_->fastest_available(si, ready);
    if (mol != cached_molecule_[si]) {
      // The gradual-upgrade property (§3.1): count latency-improving
      // transitions (trap → slow molecule → selected molecule). Downgrades
      // (an eviction took a ready atom) change the cache but are not
      // upgrades. cache_event_now_ holds the port event that invalidated
      // the cache, i.e. when the transition actually happened.
      const Cycles latency = set_->si(si).latency(mol);
      if (latency < set_->si(si).latency(cached_molecule_[si])) {
        ++upgrades;
        if (traced)
          trace_instant(TraceTrack::kExecutor, upgrade_lane_, traced_si_names_[si],
                        us_from_cycles(cache_event_now_));
      }
      cached_molecule_[si] = mol;
      cached_latency_[si] = latency;
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

Cycles RunTimeManager::open_window(Cycles now, SiId) {
  advance_reconfig(now);
  if (!cache_valid_) refresh_cache();
  // The bound is > now after advance_reconfig.
  return fabric_stall_bound(now).value_or(kMaxCycles);
}

template class PortWindowBackend<RunTimeManager>;

}  // namespace rispp
