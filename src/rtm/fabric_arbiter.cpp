#include "rtm/fabric_arbiter.h"

#include <algorithm>
#include <string>
#include <tuple>

#include "base/apportion.h"
#include "base/check.h"
#include "base/clock.h"
#include "base/metrics.h"

namespace rispp {

namespace {

MetricCounter& grants_counter() {
  static MetricCounter& c = metric_counter("rtm.arbiter.grants");
  return c;
}

MetricCounter& denials_counter() {
  static MetricCounter& c = metric_counter("rtm.arbiter.denials");
  return c;
}

MetricCounter& evictions_counter() {
  static MetricCounter& c = metric_counter("rtm.arbiter.evictions");
  return c;
}

MetricCounter& port_wait_counter() {
  static MetricCounter& c = metric_counter("rtm.arbiter.port_wait_cycles");
  return c;
}

MetricCounter& port_loads_counter() {
  static MetricCounter& c = metric_counter("port.loads_started");
  return c;
}

// Stride scheduling: a tenant's pass advances by kStrideScale / weight per
// grant, so over time port grants converge to the weight ratio.
constexpr std::uint64_t kStrideScale = 1u << 16;

}  // namespace

FabricArbiter::FabricArbiter(const ArbiterConfig& config) : config_(config) {
  RISPP_CHECK(config_.total_containers > 0);
  RISPP_CHECK(config_.starvation_bound > 0);
  RISPP_CHECK(config_.rebalance_period > 0);
  // Tenant storage never reallocates: ContainerFile references handed to
  // RunTimeManagers must stay valid for the arbiter's lifetime.
  tenants_.reserve(kMaxTenants);
  // Register the counters eagerly so a multi-tenant run always exposes them
  // (tools/trace_check --require-counter), even before the first grant.
  grants_counter();
  denials_counter();
  evictions_counter();
  port_wait_counter();
}

FabricArbiter::FabricArbiter(unsigned containers, const BitstreamModel& bitstream)
    : solo_(true) {
  config_.total_containers = containers;
  config_.bitstream = bitstream;
  // add_tenant's checks would reject a zero-container device, and the
  // reserve that keeps tenant references stable is moot for a device that
  // never takes a second tenant.
  Tenant& t = tenants_.emplace_back();
  t.config = TenantConfig{containers, /*floor=*/0, /*weight=*/1};
  t.stride = kStrideScale;
}

TenantId FabricArbiter::add_tenant(const TenantConfig& config) {
  RISPP_CHECK_MSG(!solo_, "a solo device has exactly one tenant");
  RISPP_CHECK_MSG(tenants_.size() < kMaxTenants,
                  "at most " << kMaxTenants << " tenants per device");
  RISPP_CHECK(config.quota > 0);
  RISPP_CHECK_MSG(config.floor <= config.quota,
                  "tenant floor " << config.floor << " exceeds its quota " << config.quota);
  RISPP_CHECK(config.weight > 0);
  unsigned committed = config.quota;
  for (const Tenant& t : tenants_) committed += t.file ? t.file->active() : t.config.quota;
  RISPP_CHECK_MSG(committed <= config_.total_containers,
                  "tenant quotas (" << committed << ") exceed the device ("
                                    << config_.total_containers << " containers)");
  Tenant t;
  t.config = config;
  t.stride = kStrideScale / config.weight;
  if (t.stride == 0) t.stride = 1;
  tenants_.push_back(std::move(t));
  return static_cast<TenantId>(tenants_.size() - 1);
}

void FabricArbiter::bind(TenantId t, const AtomLibrary* library,
                         std::size_t atom_type_dimension,
                         const std::vector<Cycles>* lru_stamps) {
  Tenant& ten = tenant(t);
  RISPP_CHECK(library != nullptr);
  RISPP_CHECK(lru_stamps != nullptr);
  RISPP_CHECK_MSG(!ten.file.has_value(), "tenant " << t << " already bound");
  ten.library = library;
  ten.lru_stamps = lru_stamps;
  ten.file.emplace(config_.total_containers, atom_type_dimension, ten.config.quota);
  ten.lane = trace_new_lane();
  // With tracing off, binding a solo device takes no lock: a solo RTM is
  // built per session, thousands of times per fleet run.
  if (solo_) {
    trace_name_lane(TraceTrack::kReconfigPort, ten.lane, "atom loads");
    return;
  }
  if (trace_enabled())
    trace_name_lane(TraceTrack::kArbiter, ten.lane,
                    trace_intern("tenant " + std::to_string(t)));
  ten.port_wait_hist = &metric_histogram("rtm.arbiter.port_wait_cycles", {"tenant", t});
  ten.victim_age_hist =
      &metric_histogram("rtm.arbiter.eviction_victim_age_cycles", {"tenant", t});
}

ContainerFile& FabricArbiter::containers(TenantId t) {
  Tenant& ten = tenant(t);
  RISPP_CHECK_MSG(ten.file.has_value(), "tenant " << t << " not bound");
  return *ten.file;
}

const ContainerFile& FabricArbiter::containers(TenantId t) const {
  const Tenant& ten = tenant(t);
  RISPP_CHECK_MSG(ten.file.has_value(), "tenant " << t << " not bound");
  return *ten.file;
}

const std::optional<FabricArbiter::InflightLoad>& FabricArbiter::inflight(TenantId t) const {
  return tenant(t).inflight;
}

TenantId FabricArbiter::pick_winner(TenantId asker) const {
  TenantId best = asker;
  auto key = [&](TenantId id) {
    const Tenant& t = tenants_[id];
    const bool starved = t.denied_epochs >= config_.starvation_bound;
    // Starved tenants first, then lowest pass, then lowest id.
    return std::tuple<int, std::uint64_t, TenantId>(starved ? 0 : 1, t.pass, id);
  };
  for (TenantId id = 0; id < tenants_.size(); ++id) {
    if (id == asker) continue;
    const Tenant& t = tenants_[id];
    if (t.retired || !t.claim) continue;
    if (key(id) < key(best)) best = id;
  }
  return best;
}

std::optional<Cycles> FabricArbiter::try_start(TenantId t, AtomTypeId type,
                                               ContainerId container, Cycles now) {
  Tenant& ten = tenant(t);
  RISPP_CHECK_MSG(ten.file.has_value(), "tenant " << t << " not bound");
  RISPP_CHECK_MSG(!ten.inflight.has_value(),
                  "tenant " << t << " already has a load in flight");
  RISPP_CHECK_MSG(!ten.retired, "tenant " << t << " already retired");
  const Cycles duration = load_cycles(t, type);
  const bool port_free = busy_until_ <= now;
  if (!port_free || pick_winner(t) != t) return deny(ten, now, duration);
  if (ten.claim) {
    ten.claim = false;
    const Cycles waited = now - ten.waiting_since;
    port_wait_cycles_ += waited;
    port_wait_counter().add(waited);
    ten.port_wait_hist->record(waited);
  }
  ten.denied_epochs = 0;
  ten.last_denied_epoch = ~std::uint64_t{0};
  ten.pass += ten.stride;
  const Cycles done = now + duration;
  ten.inflight = InflightLoad{type, container, done};
  busy_until_ = done;
  ++grants_;
  grants_counter().add();
  if (solo_) port_loads_counter().add();
  if (trace_enabled()) {
    if (ten.traced_type_names.empty()) {
      ten.traced_type_names.reserve(ten.library->size());
      for (AtomTypeId ty = 0; ty < ten.library->size(); ++ty)
        ten.traced_type_names.push_back(trace_intern(ten.library->type(ty).name));
    }
    trace_complete(solo_ ? TraceTrack::kReconfigPort : TraceTrack::kArbiter, ten.lane,
                   ten.traced_type_names[type], us_from_cycles(now), us_from_cycles(duration));
  }
  return std::nullopt;
}

Cycles FabricArbiter::deny(Tenant& ten, Cycles now, Cycles duration) {
  // A solo tenant only asks once its own load retired: the port is free.
  RISPP_CHECK(!solo_);
  denials_counter().add();
  bool changed = false;
  // Denied: the claim stands until the queue drains or the tenant wins.
  if (!ten.claim) {
    ten.claim = true;
    ten.waiting_since = now;
    changed = true;
  }
  // Count at most one denial per grant epoch, so `denied_epochs` means
  // "consecutive grants that went to somebody else".
  if (ten.last_denied_epoch != grants_) {
    ten.last_denied_epoch = grants_;
    ++ten.denied_epochs;
    changed = true;
  }
  if (busy_until_ > now) return busy_until_;
  // A free port went to an outranking claimant. Until another tenant calls
  // the arbiter, that answer can change only through this tenant's own
  // state: a denial that counted a new epoch may have made it starved, so
  // it re-asks one load later. A denial that changed nothing is answered
  // the same way until someone else acts: no retry is due.
  return changed ? now + duration : kNoEvent;
}

std::optional<Cycles> FabricArbiter::precheck(TenantId t, AtomTypeId type, Cycles now) {
  Tenant& ten = tenant(t);
  RISPP_CHECK_MSG(ten.file.has_value(), "tenant " << t << " not bound");
  RISPP_CHECK_MSG(!ten.inflight.has_value(),
                  "tenant " << t << " already has a load in flight");
  RISPP_CHECK_MSG(!ten.retired, "tenant " << t << " already retired");
  const bool port_free = busy_until_ <= now;
  if (port_free && pick_winner(t) == t) return std::nullopt;
  return deny(ten, now, load_cycles(t, type));
}

FabricArbiter::InflightLoad FabricArbiter::retire(TenantId t, Cycles now) {
  Tenant& ten = tenant(t);
  RISPP_CHECK(ten.inflight.has_value());
  RISPP_CHECK_MSG(ten.inflight->finishes_at <= now,
                  "retiring a load that finishes at " << ten.inflight->finishes_at
                                                      << " but now is " << now);
  InflightLoad done = *ten.inflight;
  ten.inflight.reset();
  ++ten.completed_loads;
  return done;
}

void FabricArbiter::withdraw_claim(TenantId t) {
  Tenant& ten = tenant(t);
  ten.claim = false;
  ten.denied_epochs = 0;
  ten.last_denied_epoch = ~std::uint64_t{0};
}

void FabricArbiter::retire_tenant(TenantId t) {
  Tenant& ten = tenant(t);
  withdraw_claim(t);
  ten.retired = true;
  ten.benefit_ema = 0.0;
}

void FabricArbiter::on_decision_point(TenantId t, std::uint64_t forecast_mass, Cycles now) {
  Tenant& ten = tenant(t);
  ten.benefit_ema = (ten.benefit_ema + static_cast<double>(forecast_mass)) / 2.0;
  ++decision_points_;
  if (rebalance_possible() && decision_points_ % config_.rebalance_period == 0) rebalance(now);
}

unsigned FabricArbiter::shrink_tenant(TenantId t, unsigned count, Cycles now) {
  Tenant& ten = tenants_[t];
  ContainerFile& file = *ten.file;
  unsigned freed = 0;
  // Cheapest victims first: enabled-but-empty containers lose nothing.
  for (ContainerId id = 0; id < file.size() && freed < count; ++id) {
    const AtomContainer& c = file.container(id);
    if (!c.enabled || c.state != ContainerState::kEmpty) continue;
    file.disable(id);
    ++freed;
  }
  // Then ready atoms, least-recently-used type first (id breaks ties).
  // A kLoading container is never disabled — the in-flight load would dangle.
  while (freed < count) {
    std::optional<ContainerId> victim;
    Cycles victim_used = 0;
    for (ContainerId id = 0; id < file.size(); ++id) {
      const AtomContainer& c = file.container(id);
      if (!c.enabled || c.state != ContainerState::kReady) continue;
      const Cycles used = (*ten.lru_stamps)[c.type];
      if (!victim.has_value() || used < victim_used) {
        victim = id;
        victim_used = used;
      }
    }
    if (!victim.has_value()) break;  // only kLoading left; retry next rebalance
    const bool evicted = file.disable(*victim);
    RISPP_CHECK(evicted);
    ++evictions_;
    evictions_counter().add();
    // How stale was the atom we threw out? A young victim means the LRU is
    // thrashing inside the tenant's working set.
    ten.victim_age_hist->record(now >= victim_used ? now - victim_used : 0);
    ++freed;
    // The victim lost a ready atom behind its RTM's back: bump the mutation
    // generation so the tenant's latency memo is rebuilt.
    ++ten.mutation_gen;
    ten.mutation_now = now;
  }
  return freed;
}

void FabricArbiter::rebalance(Cycles now) {
  // Entitlement = floor + largest-remainder share of the non-floor seats,
  // weighted by each live tenant's benefit EMA. Retired tenants surrender
  // everything (floor 0, weight 0).
  const std::size_t n = tenants_.size();
  std::uint64_t floor_sum = 0;
  std::vector<std::uint64_t> weights(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Tenant& t = tenants_[i];
    if (!t.file.has_value()) return;  // not every tenant bound yet
    if (t.retired) continue;
    floor_sum += t.config.floor;
    weights[i] = static_cast<std::uint64_t>(t.benefit_ema * 1024.0);
  }
  if (floor_sum > config_.total_containers) return;  // floors alone oversubscribe
  const std::vector<std::uint64_t> extra =
      apportion_largest_remainder(config_.total_containers - floor_sum, weights);
  std::vector<unsigned> entitlement(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (tenants_[i].retired) continue;
    entitlement[i] = tenants_[i].config.floor + static_cast<unsigned>(extra[i]);
  }
  // Shrink losers first so the fabric never oversubscribes, then grow
  // winners by exactly as many containers as were actually freed (a loser
  // whose only victims are mid-reconfiguration yields fewer; the deficit
  // carries to the next rebalance).
  unsigned freed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned have = tenants_[i].file->active();
    if (have > entitlement[i]) freed += shrink_tenant(static_cast<TenantId>(i), have - entitlement[i], now);
  }
  for (std::size_t i = 0; i < n && freed > 0; ++i) {
    Tenant& t = tenants_[i];
    if (t.retired) continue;
    ContainerFile& file = *t.file;
    unsigned deficit = entitlement[i] > file.active() ? entitlement[i] - file.active() : 0;
    for (ContainerId id = 0; id < file.size() && deficit > 0 && freed > 0; ++id) {
      if (file.enabled(id)) continue;
      file.enable(id);
      --deficit;
      --freed;
    }
  }
}

std::uint64_t FabricArbiter::fabric_generation(TenantId t) const {
  return tenant(t).mutation_gen;
}

Cycles FabricArbiter::last_fabric_event(TenantId t) const { return tenant(t).mutation_now; }

unsigned FabricArbiter::quota(TenantId t) const {
  const Tenant& ten = tenant(t);
  return ten.file ? ten.file->active() : ten.config.quota;
}

unsigned FabricArbiter::floor(TenantId t) const { return tenant(t).config.floor; }

std::uint64_t FabricArbiter::completed_loads(TenantId t) const {
  return tenant(t).completed_loads;
}

Cycles FabricArbiter::load_cycles(TenantId t, AtomTypeId type) const {
  const Tenant& ten = tenant(t);
  RISPP_CHECK(ten.library != nullptr);
  return config_.bitstream.reconfig_cycles(ten.library->type(type));
}

void FabricArbiter::check_invariants() const {
  unsigned active_sum = 0;
  bool all_bound = !tenants_.empty();
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = tenants_[i];
    if (!t.file.has_value()) {
      all_bound = false;
      continue;
    }
    active_sum += t.file->active();
    if (!t.retired) {
      RISPP_CHECK_MSG(t.file->active() >= t.config.floor,
                      "tenant " << i << " below its floor: " << t.file->active() << " < "
                                << t.config.floor);
    }
    RISPP_CHECK(t.file->active() <= config_.total_containers);
  }
  if (all_bound) {
    RISPP_CHECK_MSG(active_sum <= config_.total_containers,
                    "quotas oversubscribe the fabric: " << active_sum << " > "
                                                        << config_.total_containers);
  }
}

FabricArbiter::Tenant& FabricArbiter::tenant(TenantId t) {
  RISPP_CHECK_MSG(t < tenants_.size(), "unknown tenant " << t);
  return tenants_[t];
}

const FabricArbiter::Tenant& FabricArbiter::tenant(TenantId t) const {
  RISPP_CHECK_MSG(t < tenants_.size(), "unknown tenant " << t);
  return tenants_[t];
}

}  // namespace rispp
