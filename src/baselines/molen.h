// The single-implementation baselines (§2, §5, Table 2): "Molen [19] and
// OneChip [21] ... both provide a single implementation per SI and thus
// cannot upgrade during run time."
//
// For the fair comparison the paper describes, both get the same hardware
// accelerators as RISPP: the same Atom Containers, the same reconfiguration
// port and the same selected Molecules (the same selection under the same AC
// budget). What they lack is the RISPP upgrade hierarchy: an SI executes
// with its molecule only once ALL of that molecule's atoms are configured,
// and in software until then. They differ only in when they load, a
// compile-time LoadPolicy:
//
//  - Molen (kPrefetchAtEntry) queues every selected molecule at hot-spot
//    entry, most important SI first (the explicit reconfiguration
//    instructions of the Molen model), and protects the atoms of the other
//    hot spots' last selections as soft demand.
//  - OneChip (kFirstUse) couples a Reconfigurable Functional Unit to the
//    host and loads on demand: an SI's first execution per hot-spot
//    instance requests its implementation. No soft demand.
//
// Like a solo RunTimeManager, the backend owns the paper's device: a
// 1-tenant FabricArbiter (rtm/fabric_arbiter.h) holding every container
// and the single port, so every reconfigurable backend loads through one
// fabric path.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "hw/bitstream.h"
#include "rtm/fabric_arbiter.h"
#include "sim/port_window_backend.h"

namespace rispp {

enum class LoadPolicy : std::uint8_t {
  kPrefetchAtEntry,  // Molen
  kFirstUse,         // OneChip
};

struct BaselineConfig {
  unsigned container_count = 10;
  BitstreamModel bitstream;
};

template <LoadPolicy kPolicy>
class SingleImplementationBackend final
    : public PortWindowBackend<SingleImplementationBackend<kPolicy>> {
 public:
  SingleImplementationBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                              const BaselineConfig& config);

  void seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected);

  std::string_view name() const override {
    return kPolicy == LoadPolicy::kPrefetchAtEntry ? "Molen" : "OneChip";
  }
  std::uint64_t completed_loads() const override { return fabric_.completed_loads(0); }

 private:
  using Base = PortWindowBackend<SingleImplementationBackend>;
  friend Base;
  using Base::cached_latency_;
  using Base::cached_molecule_;
  using Base::monitor_;
  using Base::reopen_;
  using Base::set_;
  using Base::type_last_used_;

  /// OneChip: a selected SI's first execution per hot-spot instance
  /// requests its configuration, so the replay walk opens a window there
  /// (reopen_ marks the SIs not yet requested).
  static constexpr bool kFirstUseReopen = kPolicy == LoadPolicy::kFirstUse;
  /// The entry hook (sim/port_window_backend.h): the selection, then the
  /// policy's load queue.
  void enter_hot_spot(const WorkloadTrace& trace, std::size_t instance, Cycles now);
  /// The replay walk's hook (sim/port_window_backend.h): advance the port,
  /// issue `si`'s demand request (OneChip), and end the window at the
  /// in-flight load's completion.
  Cycles open_window(Cycles now, SiId si);
  void advance_reconfig(Cycles now);
  void start_pending_loads(Cycles now);
  void request_configuration(SiId si);
  void refresh_cache();

  FabricArbiter fabric_;
  ContainerFile* cf_ = nullptr;  // the device's containers (tenant 0's file)
  const std::optional<FabricArbiter::InflightLoad>* inflight_ = nullptr;

  Molecule demand_;       // sup of the current selection (hard)
  Molecule soft_demand_;  // Molen: join of the other hot spots' sups
  std::vector<Molecule> hot_spot_sup_;  // Molen: last selection sup per hot spot
  std::deque<AtomTypeId> pending_loads_;

  std::vector<MoleculeId> selected_molecule_;  // per SiId, kSoftwareMolecule if none
  bool cache_valid_ = false;  // cached_molecule_/cached_latency_ (refresh_cache)
};

using MolenBackend = SingleImplementationBackend<LoadPolicy::kPrefetchAtEntry>;
using OneChipBackend = SingleImplementationBackend<LoadPolicy::kFirstUse>;
using MolenConfig = BaselineConfig;
using OneChipConfig = BaselineConfig;

// Instantiated once each, next to open_window (baselines/molen.cpp).
extern template class PortWindowBackend<MolenBackend>;
extern template class PortWindowBackend<OneChipBackend>;
extern template class SingleImplementationBackend<LoadPolicy::kPrefetchAtEntry>;
extern template class SingleImplementationBackend<LoadPolicy::kFirstUse>;

}  // namespace rispp
