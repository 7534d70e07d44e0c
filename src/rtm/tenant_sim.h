// Multi-tenant co-simulation: N traces replayed against N tenant RTMs of one
// FabricArbiter, interleaved at hot-spot-instance granularity (DESIGN §9).
//
// Each tenant keeps its own simulated clock (its application's cycle count);
// the fabric events — port grants and quota moves — are serialized in global
// simulated time by always stepping the tenant whose clock is furthest
// behind. Instance granularity is exact enough because a tenant only *asks*
// for the port at its own reconfiguration events, and those all carry its own
// timestamps; the min-clock order just guarantees no tenant asks for the port
// "in the past" of a grant another tenant already received more than one
// instance ahead. With one tenant this degenerates to run_trace(kBatched) and
// is bit-identical to it.
//
// Two co-simulation modes produce bit-exact identical results:
//  - kReference: one instance per min-clock pick, O(n) scan — the oracle.
//  - kFastForward (DESIGN §9.1): epoch-based. The min-clock pick comes from
//    a binary heap keyed (clock, tenant id); the picked tenant replays
//    instances until its clock passes the runner-up (identical order to the
//    reference), and a sole surviving tenant runs to completion.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "rtm/fabric_arbiter.h"
#include "rtm/run_time_manager.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace rispp {

/// One tenant of the co-simulation. The RTM must have been constructed with
/// config.arbiter = the arbiter passed to run_tenants and config.tenant =
/// this tenant id.
struct TenantRun {
  TenantId tenant = 0;
  const WorkloadTrace* trace = nullptr;
  RunTimeManager* rtm = nullptr;
  /// Optional per-tenant stats (forces the per-run replay path, like
  /// run_trace with stats).
  SimStats* stats = nullptr;
};

enum class CosimMode : std::uint8_t {
  kFastForward,  // epoch-based fast-forward (the default; bit-exact)
  kReference,    // instance-at-a-time min-clock stepping (the oracle)
};

/// The fast-forward scheduler's pick queue: a binary min-heap keyed
/// (clock, tenant id) so ties break to the lowest id exactly like the
/// reference's linear scan. Inline so micro_ops can bench it directly.
class MinClockHeap {
 public:
  struct Item {
    Cycles clock = 0;
    std::uint32_t id = 0;
  };

  /// The reference pick order: earlier clock first, lower id on ties.
  static bool before(const Item& a, const Item& b) {
    return a.clock < b.clock || (a.clock == b.clock && a.id < b.id);
  }

  void reset(std::size_t capacity) {
    items_.clear();
    items_.reserve(capacity);
  }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  const Item& top() const { return items_.front(); }
  void push(Item item) {
    items_.push_back(item);
    std::push_heap(items_.begin(), items_.end(), &MinClockHeap::after);
  }
  Item pop() {
    std::pop_heap(items_.begin(), items_.end(), &MinClockHeap::after);
    const Item item = items_.back();
    items_.pop_back();
    return item;
  }

 private:
  // std:: heap algorithms build max-heaps: "greater" under this comparator
  // (i.e. picked later) sinks, so the front is the reference's next pick.
  static bool after(const Item& a, const Item& b) { return before(b, a); }

  std::vector<Item> items_;
};

/// Replays every tenant's trace to completion and returns one SimResult per
/// tenant (same semantics as run_trace per tenant: total_cycles is the
/// tenant's own clock, atom_loads its completed port loads — an empty trace
/// yields total_cycles 0 and whatever loads already completed). Tenants that
/// finish retire from the arbiter so the remaining tenants' port claims
/// stay live. Both CosimModes return bit-identical results
/// (tests/cosim_test.cpp byte-compares SimResult + SimStats across
/// schedulers, partition modes and tenant counts).
std::vector<SimResult> run_tenants(FabricArbiter& arbiter, std::span<TenantRun> tenants,
                                   CosimMode mode = CosimMode::kFastForward);

}  // namespace rispp
