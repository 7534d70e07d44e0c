// OneChip98-like baseline (§2/§5: "We have further on analyzed the behavior
// of state-of-the-art related reconfigurable computing systems, i.e. Molen
// [19] and OneChip [21]. They both provide a single implementation per SI
// and thus cannot upgrade during run time.")
//
// OneChip couples a Reconfigurable Functional Unit to the host processor and
// loads configurations on demand: unlike the Molen model there is no
// explicit prefetch at hot-spot entry — the first *use* of an SI requests
// its (single) implementation, and the SI traps to software until that
// implementation is fully configured. Same accelerators as RISPP/Molen
// (identical selection under the same AC budget).
#pragma once

#include <deque>
#include <vector>

#include "hw/atom_container.h"
#include "hw/bitstream.h"
#include "hw/reconfig_port.h"
#include "select/selection.h"
#include "sim/port_window_backend.h"

namespace rispp {

struct OneChipConfig {
  unsigned container_count = 10;
  BitstreamModel bitstream;
};

class OneChipBackend final : public PortWindowBackend<OneChipBackend> {
 public:
  OneChipBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                 const OneChipConfig& config);

  void seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected);

  std::string_view name() const override { return "OneChip"; }
  void on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                         Cycles now) override;
  std::uint64_t completed_loads() const override { return port_.completed_loads(); }

 private:
  friend class PortWindowBackend<OneChipBackend>;
  /// A selected SI's first execution per hot-spot instance requests its
  /// configuration, so the replay walk opens a window there (reopen_ marks
  /// the SIs not yet requested).
  static constexpr bool kFirstUseReopen = true;
  /// The replay walk's hook (sim/port_window_backend.h): advance the port,
  /// issue `si`'s demand request, and end the window at the in-flight load's
  /// completion.
  Cycles open_window(Cycles now, SiId si);
  void advance_reconfig(Cycles now);
  void start_pending_loads(Cycles now);
  void request_configuration(SiId si);
  void refresh_cache();

  OneChipConfig config_;
  ContainerFile containers_;
  ReconfigPort port_;

  std::vector<SiRef> selection_;
  Molecule demand_;
  std::deque<AtomTypeId> pending_loads_;
  std::vector<MoleculeId> selected_molecule_; // per SiId
  bool cache_valid_ = false;  // cached_molecule_/cached_latency_ (refresh_cache)
};

// Instantiated once, next to open_window (baselines/onechip.cpp).
extern template class PortWindowBackend<OneChipBackend>;

}  // namespace rispp
