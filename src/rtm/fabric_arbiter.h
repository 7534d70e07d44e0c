// The fabric arbiter: one physical reconfigurable fabric shared by N tenant
// run-time managers (DESIGN §9).
//
// The paper's run-time system assumes a single application owns every Atom
// Container and the one reconfiguration port. The arbiter generalizes that
// to N concurrent applications on one device:
//
//  - *Containers* — each tenant views the fabric through its own
//    ContainerFile (stable ids, physical size = whole device) of which its
//    current quota is enabled. Quotas always sum to the device size.
//    Partitioning is kStatic (quotas fixed at setup) or kBenefitWeighted
//    (quotas follow an exponential average of each tenant's forecast mass,
//    re-apportioned by largest remainder at decision points — a tenant
//    reclaims containers by evicting another tenant's least-valuable atoms,
//    never below the victim's floor).
//  - *The port* — one atom loads at a time device-wide. Grants are stride-
//    scheduled weighted round-robin among the requesting tenant and every
//    tenant with a standing claim (a claim is registered when a request is
//    denied and withdrawn when the claimant's queue drains or it retires).
//    A tenant denied `starvation_bound` consecutive grant epochs wins the
//    next free port unconditionally.
//
// The paper's single-application system is the 1-tenant case: the quota is
// the whole device, round-robin has one contender, and every grant decision
// reduces to "is the port free". A RunTimeManager without a shared device,
// and each of the Molen and OneChip baselines, builds exactly that for
// itself (the solo constructor below), so every reconfigurable backend
// loads through one fabric path; tests/golden_test.cpp pins the solo
// numbers and tests/multitenant_test.cpp checks run_trace against
// run_tenants on a 1-tenant device.
//
// Observability: rtm.arbiter.{grants,denials,evictions,port_wait_cycles}
// counters and one simulated-time lane per tenant on the "fabric arbiter"
// track (the multi-tenant version of Figure 4's port timeline).
// rtm.arbiter.grants counts every device's loads. A solo device's loads are
// Figure 4 itself: they go to the "reconfig port" track and also count as
// port.loads_started.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "base/metrics.h"
#include "base/trace_event.h"
#include "base/types.h"
#include "dpg/atom_library.h"
#include "hw/atom_container.h"
#include "hw/bitstream.h"

namespace rispp {

using TenantId = std::uint16_t;

enum class PartitionMode : std::uint8_t {
  kStatic,           // quotas fixed at setup
  kBenefitWeighted,  // quotas follow forecast-mass EMAs (largest remainder)
};

struct ArbiterConfig {
  /// Physical Atom Containers on the device; tenant quotas sum to this.
  unsigned total_containers = 10;
  BitstreamModel bitstream;
  PartitionMode partition = PartitionMode::kStatic;
  /// A tenant denied this many consecutive grant epochs takes the next free
  /// port regardless of weighted round-robin.
  unsigned starvation_bound = 4;
  /// Decision points between two benefit-weighted re-apportionments.
  std::uint64_t rebalance_period = 8;
};

struct TenantConfig {
  /// Initial Atom-Container quota.
  unsigned quota = 0;
  /// Rebalancing and cross-tenant eviction never push the tenant below this.
  unsigned floor = 1;
  /// Weighted-round-robin port share.
  unsigned weight = 1;
};

class FabricArbiter {
 public:
  /// At most this many tenants per device (keeps tenant storage stable so
  /// container/file references handed to RTMs never move).
  static constexpr std::size_t kMaxTenants = 64;

  explicit FabricArbiter(const ArbiterConfig& config);

  /// The paper's device (§3.1): one application owning all `containers`
  /// (zero allowed) and the port — tenant 0 under a static partition. The
  /// device never takes a second tenant, and its single tenant never waits
  /// for the port or loses containers to a rebalance.
  FabricArbiter(unsigned containers, const BitstreamModel& bitstream);

  /// Registers a tenant (call every add_tenant before constructing the
  /// tenants' RunTimeManagers). Quotas must sum to total_containers by the
  /// time the simulation starts — check_invariants() verifies.
  TenantId add_tenant(const TenantConfig& config);

  /// Called by the tenant's RunTimeManager at construction: materializes the
  /// tenant's container view (physical size = the device, quota enabled)
  /// over the tenant's atom-type space, and records the library the port
  /// needs for load timing. `lru_stamps` points at the RTM's per-type LRU
  /// stamp array (read during cross-tenant victim selection; must outlive
  /// the arbiter's use).
  void bind(TenantId t, const AtomLibrary* library, std::size_t atom_type_dimension,
            const std::vector<Cycles>* lru_stamps);

  ContainerFile& containers(TenantId t);
  const ContainerFile& containers(TenantId t) const;

  // -- The single reconfiguration port ---------------------------------
  struct InflightLoad {
    AtomTypeId type;
    ContainerId container;
    Cycles finishes_at;
  };

  /// The tenant's own in-flight load (independent of who holds the port
  /// *now* — a finished load stays visible until its owner retires it).
  const std::optional<InflightLoad>& inflight(TenantId t) const;

  /// The retry hint of a denial after which only another tenant's arbiter
  /// call can change the tenant's answer (see try_start).
  static constexpr Cycles kNoEvent = std::numeric_limits<Cycles>::max();

  /// Asks for the port at `now` to load `type` into the tenant's container
  /// `container`. Returns nullopt on a grant (the load is in flight);
  /// otherwise the denial registers a claim and returns a retry hint
  /// strictly after `now`: the earliest cycle at which the tenant's answer
  /// can change while no other tenant calls the arbiter. That is the port's
  /// release while it is busy; at a free port, one load duration ahead when
  /// this denial changed the tenant's arbiter state (it registered the claim
  /// or counted a new grant epoch, which may have made the tenant starved),
  /// and kNoEvent when it changed nothing. The tenant re-asks at its next
  /// reconfiguration event, and its RTM ends a replay window at the hint.
  std::optional<Cycles> try_start(TenantId t, AtomTypeId type, ContainerId container,
                                  Cycles now);

  /// Denial-only fast path: would try_start(t, type, *, now) be denied? On a
  /// denial this performs exactly try_start's denial bookkeeping (claim,
  /// starvation accounting) and returns the same retry hint; on nullopt the
  /// arbiter state is untouched and an immediate try_start at the same `now`
  /// is guaranteed to grant. Lets the RTM skip victim selection (an
  /// O(containers) scan) on the contended retry path.
  std::optional<Cycles> precheck(TenantId t, AtomTypeId type, Cycles now);

  /// Retires the tenant's finished load (finishes_at <= now).
  InflightLoad retire(TenantId t, Cycles now);

  /// The tenant's load queue drained — its port claim (if any) lapses.
  void withdraw_claim(TenantId t);

  /// The tenant's trace ended: claim withdrawn and the tenant leaves the
  /// round-robin (its containers keep their quota until a rebalance).
  void retire_tenant(TenantId t);

  // -- Decision points ---------------------------------------------------
  /// Called at every hot-spot entry before the tenant decides.
  /// `forecast_mass` is the summed expected executions of the hot spot's
  /// SIs — the benefit signal driving kBenefitWeighted quotas.
  void on_decision_point(TenantId t, std::uint64_t forecast_mass, Cycles now);

  /// Bumped whenever the arbiter mutates the tenant's containers from
  /// *outside* the tenant's own calls (quota rebalance evicting its atoms);
  /// the tenant's RTM invalidates its latency cache when it observes a new
  /// generation. last_fabric_event() is the simulated time of the mutation.
  std::uint64_t fabric_generation(TenantId t) const;
  Cycles last_fabric_event(TenantId t) const;

  // -- Introspection ------------------------------------------------------
  std::size_t tenant_count() const { return tenants_.size(); }
  unsigned quota(TenantId t) const;
  unsigned floor(TenantId t) const;
  std::uint64_t completed_loads(TenantId t) const;
  Cycles load_cycles(TenantId t, AtomTypeId type) const;
  std::uint64_t grants() const { return grants_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t port_wait_cycles() const { return port_wait_cycles_; }

  /// Hard checks: every bound tenant's quota within [floor, total] and all
  /// quotas summing to total_containers (once every tenant is bound).
  void check_invariants() const;

 private:
  struct Tenant {
    TenantConfig config;
    const AtomLibrary* library = nullptr;
    const std::vector<Cycles>* lru_stamps = nullptr;
    std::optional<ContainerFile> file;
    std::optional<InflightLoad> inflight;
    std::uint64_t completed_loads = 0;
    // Stride-scheduled weighted round-robin: lowest pass wins; a grant
    // advances the winner's pass by its stride (inversely ∝ weight).
    std::uint64_t pass = 0;
    std::uint64_t stride = 0;
    bool claim = false;
    Cycles waiting_since = 0;
    std::uint64_t last_denied_epoch = ~std::uint64_t{0};
    unsigned denied_epochs = 0;
    bool retired = false;
    // Benefit EMA for kBenefitWeighted quotas.
    double benefit_ema = 0.0;
    // External-mutation generation (see fabric_generation()).
    std::uint64_t mutation_gen = 0;
    Cycles mutation_now = 0;
    // Tracing: one simulated-time lane per tenant; type names interned lazily.
    TraceLane lane = 0;
    std::vector<const char*> traced_type_names;
    // Per-tenant distribution series (DESIGN §7), resolved once in bind() so
    // the grant/eviction hot paths never touch the registry lock. Null on a
    // solo device, which records neither.
    MetricHistogram* port_wait_hist = nullptr;
    MetricHistogram* victim_age_hist = nullptr;
  };

  Tenant& tenant(TenantId t);
  const Tenant& tenant(TenantId t) const;
  /// Winner of the free port among `asker` and all standing claimants.
  TenantId pick_winner(TenantId asker) const;
  /// try_start's denial bookkeeping (claim registration + per-grant-epoch
  /// starvation accounting); returns the retry hint try_start documents:
  /// busy_until_, now + duration, or kNoEvent.
  Cycles deny(Tenant& ten, Cycles now, Cycles duration);
  /// True while a quota rebalance can fire at a future decision point
  /// (kBenefitWeighted with more than one registered tenant).
  bool rebalance_possible() const {
    return config_.partition == PartitionMode::kBenefitWeighted && tenants_.size() > 1;
  }
  /// Re-apportions quotas to the benefit-weighted entitlements.
  void rebalance(Cycles now);
  /// Disables up to `count` of the tenant's least-valuable enabled
  /// containers (never kLoading); returns how many were disabled.
  unsigned shrink_tenant(TenantId t, unsigned count, Cycles now);

  ArbiterConfig config_;
  bool solo_ = false;  // built by the solo constructor
  std::vector<Tenant> tenants_;
  Cycles busy_until_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t port_wait_cycles_ = 0;
  std::uint64_t decision_points_ = 0;
};

}  // namespace rispp
