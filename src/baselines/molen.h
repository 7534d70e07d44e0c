// Molen-like baseline (§5, Table 2): a state-of-the-art reconfigurable
// processor with a *single* implementation per SI and explicitly
// predetermined reconfiguration.
//
// For the fair comparison the paper describes, Molen gets the same hardware
// accelerators: the same Atom Containers, the same reconfiguration port and
// the same selected Molecules (via the same selection under the same AC
// budget). What it lacks is the RISPP upgrade hierarchy: an SI executes with
// its molecule only once ALL of that molecule's atoms are configured, and in
// software until then. Loads are issued molecule-by-molecule in importance
// order at hot-spot entry (prefetch).
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

struct MolenConfig {
  unsigned container_count = 10;
  BitstreamModel bitstream;
};

class MolenBackend final : public ExecutionBackend {
 public:
  MolenBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count,
               const MolenConfig& config);

  void seed_forecast(HotSpotId hs, SiId si, std::uint64_t expected);

  std::string_view name() const override { return "Molen"; }
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

  const std::vector<SiRef>& current_selection() const { return selection_; }

 private:
  void advance_reconfig(Cycles now);
  void start_pending_loads(Cycles now);
  void refresh_cache();

  const SpecialInstructionSet* set_;
  MolenConfig config_;
  ExecutionMonitor monitor_;
  ContainerFile containers_;
  ReconfigPort port_;

  std::vector<SiRef> selection_;
  Molecule demand_;
  Molecule soft_demand_;
  std::vector<Molecule> hot_spot_sup_;
  std::deque<AtomTypeId> pending_loads_;
  std::vector<Cycles> type_last_used_;

  /// Per SiId: the latency the SI currently takes (selected molecule if
  /// complete, else software).
  std::vector<Cycles> cached_latency_;
  std::vector<MoleculeId> selected_molecule_;  // per SiId, kSoftwareMolecule if none
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
