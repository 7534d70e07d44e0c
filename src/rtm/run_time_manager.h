// The RISPP Run-Time Manager (§3.1) — the ExecutionBackend that ties the
// whole platform together:
//
//   I)  controls SI execution: forwards an SI to the Atom Containers when a
//       molecule is composed, or lets it trap onto the base instruction set;
//   II) observes: per-hot-spot SI execution frequencies feed the forecast
//       (ExecutionMonitor) used as "expected executions";
//   III) decides re-loading: at every hot-spot entry it runs Molecule
//       selection under the AC budget, asks the configured SI Scheduler for
//       the atom loading sequence, and feeds the single reconfiguration
//       port, evicting superfluous atoms as loads start.
//
// The gradual-upgrade property falls out of (I): as loads complete, the
// fastest *available* molecule of each SI improves step by step.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "base/trace_event.h"

#include "hw/atom_container.h"
#include "hw/bitstream.h"
#include "monitor/forecast.h"
#include "rtm/decision_memo.h"
#include "rtm/fabric_arbiter.h"
#include "rtm/path_store.h"
#include "sched/schedule.h"
#include "select/selection.h"
#include "sim/port_window_backend.h"

namespace rispp {

/// Where "expected SI executions" come from (the ablation_forecast bench
/// compares these; the paper's system is kMonitored).
enum class ForecastMode {
  kMonitored,    // online monitoring with exponential update (the paper)
  kStaticSeeds,  // design-time profile only, never adapted
  kOracle,       // exact counts of the upcoming instance (future knowledge)
};

struct RtmConfig {
  unsigned container_count = 10;
  BitstreamModel bitstream;
  /// The SI Scheduler strategy (not owned; must outlive the RTM).
  const AtomScheduler* scheduler = nullptr;
  ForecastMode forecast_mode = ForecastMode::kMonitored;
  /// Payback horizon for the upgrade cleaning rule: the number of hot-spot
  /// instances an atom is assumed to stay resident, over which its
  /// reconfiguration time must be repaid by expected latency savings
  /// (0 disables the rule).
  unsigned payback_horizon = 16;
  /// Cross-hot-spot prefetching (an extension beyond the paper): once the
  /// current hot spot's load sequence has drained, the idle port starts
  /// loading the schedule of the *predicted next* hot spot (first-order
  /// successor prediction), without evicting anything the current hot spot
  /// demands.
  bool enable_prefetch = false;
  /// Memoize the selection→schedule decision (DESIGN §6.2). The decision is
  /// a pure function of (hot-spot SI list, forecast vector, ready atoms,
  /// container budget) within the RTM's memo domain (SI set, scheduler
  /// strategy, payback constant, rtm_domain_digest), so replaying a memoized
  /// decision is bit-exact by construction. A miss first tries the RTM's
  /// path store (re-running the picks of an earlier decision with the same
  /// SIs, ready atoms and budget). Off computes every decision in full and
  /// records nothing: the oracle path for A/B and equivalence tests.
  bool enable_decision_cache = true;
  /// A decision memo shared with other RTMs (the fleet's process-wide memo,
  /// DESIGN §8), so identical decisions computed by *other* sessions replay
  /// here. The RTM registers its constants (SI-set fingerprint, scheduler,
  /// payback, rtm_domain_digest) as a memo domain, which keeps sharing
  /// bit-exact. Null: the RTM memoizes through a private 1-shard memo of
  /// 4096 entries. Not owned; must outlive the RTM.
  DecisionMemo* decision_memo = nullptr;
  /// Identity of the owning session — only used for the memo's
  /// cross-session hit accounting, never for decisions.
  std::uint64_t session_id = 0;
  /// Multi-tenant mode (DESIGN §9): when set, this RTM is tenant `tenant` of
  /// the arbiter's shared fabric — the AC view and the reconfiguration port
  /// come from the arbiter (container_count is ignored) and every load is
  /// subject to port arbitration and quota rebalancing. Not owned; must
  /// outlive the RTM. Null: the RTM owns the paper's device, a 1-tenant
  /// arbiter with `container_count` containers (FabricArbiter's solo
  /// constructor).
  FabricArbiter* arbiter = nullptr;
  TenantId tenant = 0;
};

/// Digest of the RtmConfig knobs folded into the RTM's memo domain next to
/// the SI-set fingerprint, scheduler name and payback constant, so RTMs
/// configured differently never share decisions. forecast_mode enters.
/// DecisionMemo.EveryConfigFieldKeepsSharedMemoBitExact replays every field's
/// perturbation through a shared memo and fails for a knob that changes
/// decisions without changing the domain.
std::uint64_t rtm_domain_digest(const RtmConfig& config);

class RunTimeManager final : public PortWindowBackend<RunTimeManager> {
 public:
  RunTimeManager(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                 const RtmConfig& config);

  /// Design-time forecast seed for the first instance of each hot spot.
  /// Seeds are a design-time profile: seeding after the first hot-spot entry
  /// or re-seeding a (hot spot, SI) pair that already holds a nonzero seed is
  /// a hard error (RISPP_CHECK) — both silently skewed kStaticSeeds results
  /// before, because monitor_.seed and seeds_ disagreed on "latest wins".
  void seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected);

  // -- ExecutionBackend ------------------------------------------------
  std::string_view name() const override { return config_.scheduler->name(); }
  std::uint64_t completed_loads() const override {
    return config_.arbiter->completed_loads(config_.tenant);
  }

  // -- Introspection (tests, Figure 8 analysis) ------------------------
  const Molecule& ready_atoms() const { return cf_->ready_atoms(); }
  const std::vector<SiRef>& current_selection() const { return selection_; }
  const ExecutionMonitor& monitor() const { return monitor_; }
  /// Latency the SI would take if issued at the current state.
  Cycles current_latency(SiId si) const;
  /// Decision-memo effectiveness (both the entry and the prefetch path).
  std::uint64_t decision_cache_hits() const { return decision_cache_hits_; }
  std::uint64_t decision_cache_misses() const { return decision_cache_misses_; }
  /// Misses the path store answered by re-running recorded picks; the other
  /// misses ran the full pipeline.
  std::uint64_t decision_cache_replays() const { return decision_cache_replays_; }

 private:
  friend class PortWindowBackend<RunTimeManager>;
  /// The entry hook (sim/port_window_backend.h): forecast, decision (III),
  /// load queue and the first loads.
  void enter_hot_spot(const WorkloadTrace& trace, std::size_t instance, Cycles now);
  /// The replay walk's hook (sim/port_window_backend.h): advance the port to
  /// `now`, refresh the latency cache, and bound the window by
  /// fabric_stall_bound.
  Cycles open_window(Cycles now, SiId si);
  void advance_reconfig(Cycles now);
  void start_pending_loads(Cycles now);
  void compute_prefetch();

  /// Asks the port for one load of `type`, evicting a container outside
  /// `hard_demand`. False when the load cannot start now: the port was
  /// denied (retry hint in denied_until_) or every container is pinned.
  bool start_load(AtomTypeId type, const Molecule& hard_demand, Cycles now);
  /// The next simulated time at which this tenant's SI latencies can change:
  /// its own in-flight load's completion, or the arbiter's retry hint while
  /// it waits for the port (FabricArbiter::kNoEvent when its last ask
  /// changed nothing: it asks again at its next hot-spot entry or load
  /// completion). nullopt = no pending fabric event (latencies are stable
  /// until the next decision point). Ends open_window's windows.
  std::optional<Cycles> fabric_stall_bound(Cycles now) const;
  /// Consumes arbiter-side mutations (quota rebalances evicting our atoms)
  /// by invalidating the latency cache when the fabric generation moved.
  void sync_fabric();

  /// Runs selection + scheduling for (sis, forecast, current ready atoms,
  /// budget), or replays the memoized result verbatim on a key match. A miss
  /// replays a recorded path when all its picks agree under `forecast`. The
  /// returned reference is the RTM's result slot: it is invalidated by the
  /// next decide() call, so consume it before any path that may decide again.
  const DecisionMemo::Decision& decide(const std::vector<SiId>& sis,
                                       const std::vector<std::uint64_t>& forecast,
                                       unsigned budget);
  /// The unmemoized selection→schedule pipeline behind decide(); `record`,
  /// when given, receives the decision and its forecast reads.
  void compute_decision(const std::vector<SiId>& sis,
                        const std::vector<std::uint64_t>& forecast, unsigned budget,
                        const Molecule& ready, DecisionMemo::Decision& out,
                        DecisionPath* record);

  // config_.arbiter and config_.decision_memo are never null after
  // construction: without the caller's, they point at own_fabric_/own_memo_.
  RtmConfig config_;
  std::optional<FabricArbiter> own_fabric_;
  std::optional<DecisionMemo> own_memo_;
  std::vector<std::vector<std::uint64_t>> seeds_;  // design-time profile copy
  ContainerFile* cf_ = nullptr;  // this tenant's AC view (the arbiter's file)
  // This tenant's in-flight load (arbiter storage never moves).
  const std::optional<FabricArbiter::InflightLoad>* inflight_ = nullptr;
  Cycles denied_until_ = 0;      // arbiter retry hint from the last denial (may be kNoEvent)
  std::uint64_t fabric_gen_seen_ = 0;  // last consumed arbiter mutation gen

  std::vector<SiRef> selection_;
  Cycles payback_cycles_per_atom_ = 0;   // avg atom load time (payback rule)
  Molecule demand_;                      // sup of the current selection (hard)
  Molecule soft_demand_;                 // join of the other hot spots' sups
  std::vector<Molecule> hot_spot_sup_;   // last selection sup per hot spot
  std::deque<AtomTypeId> pending_loads_; // remaining SF output
  std::deque<AtomTypeId> prefetch_loads_;       // predicted next hot spot's SF
  std::vector<HotSpotId> successor_;            // last observed successor per hot spot
  // Forecast-churn attribution (DESIGN §7): each hot spot's previous forecast
  // and selection; a drifted forecast that flips the selection is a
  // mispredict and the resulting loads are churn.
  std::vector<std::vector<std::uint64_t>> last_forecast_;
  std::vector<std::vector<SiRef>> last_selection_;
  std::vector<bool> entry_seen_;
  HotSpotId current_hot_spot_ = 0;
  bool seen_any_hot_spot_ = false;
  bool prefetch_computed_ = false;
  Molecule prefetch_demand_;                    // sup of the prefetch selection

  // Decision memo (see decide()).
  DecisionMemo::DomainId memo_domain_ = 0;
  std::uint64_t decision_cache_hits_ = 0;
  std::uint64_t decision_cache_misses_ = 0;
  std::uint64_t decision_cache_replays_ = 0;
  PathStore paths_;                         // memo misses' recorded picks
  DecisionMemo::Decision decision_;         // decide()'s result slot
  std::vector<std::uint64_t> oracle_forecast_;  // per-entry scratch (kOracle)
  std::vector<SiId> prefetch_sis_;              // per-entry scratch (prefetch)

  // Latency cache (cached_molecule_: each SI's fastest available molecule;
  // cached_latency_: its latency), invalidated when ready atoms change.
  // refresh_cache() re-derives only the SIs using an atom type whose ready
  // count moved since cache_ready_, and diffs old vs new molecules to spot
  // per-SI upgrade transitions (trap → slow molecule → selected molecule):
  // cache_event_now_ remembers the simulated time of the first invalidating
  // port event since the last refresh, which timestamps the upgrade instants
  // on the executor track.
  std::vector<char> cache_stale_;            // per SiId, re-derive at next refresh
  Molecule cache_ready_;                     // ready atoms of the last refresh
  bool cache_valid_ = false;
  Cycles cache_event_now_ = 0;
  TraceLane upgrade_lane_;                      // "SI upgrades" row
  std::vector<const char*> traced_si_names_;    // interned, lazy
  void refresh_cache();
};

// Instantiated once, next to open_window (rtm/run_time_manager.cpp).
extern template class PortWindowBackend<RunTimeManager>;

}  // namespace rispp
