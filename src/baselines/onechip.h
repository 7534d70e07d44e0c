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
#include "monitor/forecast.h"
#include "select/selection.h"
#include "sim/executor.h"

namespace rispp {

struct OneChipConfig {
  unsigned container_count = 10;
  BitstreamModel bitstream;
};

class OneChipBackend final : public ExecutionBackend {
 public:
  OneChipBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count,
                 const OneChipConfig& config);

  void seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected);

  std::string_view name() const override { return "OneChip"; }
  void on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                         Cycles now) override;
  void on_hot_spot_exit(Cycles now) override;
  Cycles si_execution_latency(SiId si, Cycles now) override;
  Cycles si_execution_run_latency(SiId si, std::uint64_t count, Cycles now,
                                  Cycles per_execution_overhead,
                                  std::vector<LatencySegment>& segments) override;
  Cycles si_execution_span(std::span<const SiRun> runs, Cycles now,
                           Cycles per_execution_overhead) override;
  std::uint64_t completed_loads() const override { return port_.completed_loads(); }

 private:
  void advance_reconfig(Cycles now);
  void start_pending_loads(Cycles now);
  void request_configuration(SiId si);
  void refresh_cache();

  const SpecialInstructionSet* set_;
  OneChipConfig config_;
  ExecutionMonitor monitor_;
  ContainerFile containers_;
  ReconfigPort port_;

  std::vector<SiRef> selection_;
  Molecule demand_;
  std::deque<AtomTypeId> pending_loads_;
  std::vector<bool> requested_;               // per SiId: configuration queued?
  std::vector<MoleculeId> selected_molecule_; // per SiId
  std::vector<Cycles> type_last_used_;
  std::vector<Cycles> cached_latency_;
  bool cache_valid_ = false;

  // Scratch for si_execution_span's port-quiet windows (per SiId; the touch
  // marks are validated against span_gen_ so windows open without
  // O(si_count) clears).
  std::uint64_t span_gen_ = 0;
  std::vector<Cycles> span_step_;              // latency + overhead this window
  std::vector<std::uint64_t> span_touch_gen_;  // "stamped this window" marker
  std::vector<Cycles> span_last_start_;        // last execution start this window
  std::vector<SiId> span_touched_;             // SIs to LRU-stamp at window close
};

}  // namespace rispp
