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
#include "sched/schedule.h"
#include "select/selection.h"
#include "sim/executor.h"

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
  /// decision is bit-exact by construction. Off is only useful for A/B
  /// tests and the memo's own equivalence tests.
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

class RunTimeManager final : public ExecutionBackend {
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
  void on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                         Cycles now) override;
  void on_hot_spot_exit(Cycles now) override;
  Cycles si_execution_latency(SiId si, Cycles now) override;
  Cycles si_execution_run_latency(SiId si, std::uint64_t count, Cycles now,
                                  Cycles per_execution_overhead,
                                  std::vector<LatencySegment>& segments) override;
  Cycles si_execution_span(std::span<const SiRun> runs, Cycles now,
                           Cycles per_execution_overhead) override;
  std::uint64_t completed_loads() const override {
    return config_.arbiter->completed_loads(config_.tenant);
  }

  // -- Co-simulation fast-forward (rtm/tenant_sim.cpp, DESIGN §9.1) ----
  /// No load in flight and both load queues drained: entering a hot spot is
  /// the only thing that could next touch the reconfiguration port.
  bool reconfig_idle() const {
    return !inflight_->has_value() && pending_loads_.empty() && prefetch_loads_.empty();
  }
  /// Conservative probe: would replaying `instance` be *port-silent* — no
  /// port request, no load completion, no queued load left behind? True only
  /// when the reconfig machinery is idle AND the entry's decision is already
  /// memoized with an empty load sequence: a DecisionMemo::peek() of the
  /// exact key decide() will build, which moves neither recency nor
  /// counters. A memoized decision is the decision, so the probe stays sound
  /// even if a shared memo evicts the entry before the real lookup. False
  /// negatives are fine (the caller falls back to normal stepping); false
  /// positives would break bit-exactness, so every precondition the key
  /// assumes (forecast mode, prefetch, memo on) is checked here. Only true
  /// while rebalance_possible() == false — a port-silent entry then commutes
  /// with other tenants' steps (DESIGN §9.1).
  bool entry_is_port_silent(const WorkloadTrace& trace, std::size_t instance) const;

  // -- Introspection (tests, Figure 8 analysis) ------------------------
  const Molecule& ready_atoms() const { return cf_->ready_atoms(); }
  const std::vector<SiRef>& current_selection() const { return selection_; }
  const ExecutionMonitor& monitor() const { return monitor_; }
  /// Latency the SI would take if issued at the current state.
  Cycles current_latency(SiId si) const;
  /// Decision-memo effectiveness (both the entry and the prefetch path).
  std::uint64_t decision_cache_hits() const { return decision_cache_hits_; }
  std::uint64_t decision_cache_misses() const { return decision_cache_misses_; }

 private:
  void advance_reconfig(Cycles now);
  void start_pending_loads(Cycles now);
  void compute_prefetch();

  /// Asks the port for one load of `type`, evicting a container outside
  /// `hard_demand`. False when the load cannot start now: the port was
  /// denied (retry hint in denied_until_) or every container is pinned.
  bool start_load(AtomTypeId type, const Molecule& hard_demand, Cycles now);
  /// The next simulated time at which this tenant's SI latencies can change:
  /// its own in-flight load's completion, or the arbiter's retry hint while
  /// it waits for the port. nullopt = no pending fabric event (latencies are
  /// stable until the next decision point). Bounds the fast-forward windows
  /// of si_execution_run_latency / si_execution_span.
  std::optional<Cycles> fabric_stall_bound(Cycles now) const;
  /// Consumes arbiter-side mutations (quota rebalances evicting our atoms)
  /// by invalidating the latency cache when the fabric generation moved.
  void sync_fabric();

  /// Runs selection + scheduling for (sis, forecast, current ready atoms,
  /// budget), or replays the memoized result verbatim on a key match. The
  /// returned reference is the RTM's result slot: it is invalidated by the
  /// next decide() call, so consume it before any path that may decide again.
  const DecisionMemo::Decision& decide(const std::vector<SiId>& sis,
                                       const std::vector<std::uint64_t>& forecast,
                                       unsigned budget);
  /// The unmemoized selection→schedule pipeline behind decide().
  void compute_decision(const std::vector<SiId>& sis,
                        const std::vector<std::uint64_t>& forecast, unsigned budget,
                        const Molecule& ready, DecisionMemo::Decision& out);

  const SpecialInstructionSet* set_;
  // config_.arbiter and config_.decision_memo are never null after
  // construction: without the caller's, they point at own_fabric_/own_memo_.
  RtmConfig config_;
  std::optional<FabricArbiter> own_fabric_;
  std::optional<DecisionMemo> own_memo_;
  ExecutionMonitor monitor_;
  std::vector<std::vector<std::uint64_t>> seeds_;  // design-time profile copy
  ContainerFile* cf_ = nullptr;  // this tenant's AC view (the arbiter's file)
  // This tenant's in-flight load (arbiter storage never moves).
  const std::optional<FabricArbiter::InflightLoad>* inflight_ = nullptr;
  Cycles denied_until_ = 0;      // arbiter retry hint from the last denial
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
  std::vector<Cycles> type_last_used_;   // LRU stamps per atom type

  // Decision memo (see decide()).
  DecisionMemo::DomainId memo_domain_ = 0;
  std::uint64_t decision_cache_hits_ = 0;
  std::uint64_t decision_cache_misses_ = 0;
  DecisionMemo::Decision decision_;         // decide()'s result slot
  mutable DecisionMemo::Decision probe_;    // entry_is_port_silent() scratch
  std::vector<std::uint64_t> oracle_forecast_;  // per-entry scratch (kOracle)
  std::vector<SiId> prefetch_sis_;              // per-entry scratch (prefetch)

  // Latency cache, invalidated when ready atoms change. refresh_cache()
  // also diffs old vs new molecules to spot per-SI upgrade transitions
  // (trap → slow molecule → selected molecule): cache_event_now_ remembers
  // the simulated time of the first invalidating port event since the last
  // refresh, which timestamps the upgrade instants on the executor track.
  std::vector<MoleculeId> cached_molecule_;  // per SiId
  bool cache_valid_ = false;
  Cycles cache_event_now_ = 0;
  TraceLane upgrade_lane_;                      // "SI upgrades" row
  std::vector<const char*> traced_si_names_;    // interned, lazy
  void refresh_cache();

  // Scratch for si_execution_span's port-quiet windows (per SiId, validated
  // against span_gen_ so windows open without O(si_count) clears).
  std::uint64_t span_gen_ = 0;
  std::vector<std::uint64_t> span_step_gen_;   // step cache validity
  std::vector<Cycles> span_step_;              // latency + overhead this window
  std::vector<std::uint64_t> span_touch_gen_;  // "executed this window" marker
  std::vector<Cycles> span_last_start_;        // last execution start this window
  std::vector<SiId> span_touched_;             // SIs executed this window
};

}  // namespace rispp
