// The baselines without reconfiguration: every SI keeps one latency for the
// whole replay, so a run is one latency segment and a hot-spot instance is
// pure arithmetic. SoftwareOnlyBackend and StaticAsipBackend differ only in
// the latency table their constructors fill.
#pragma once

#include <span>
#include <vector>

#include "sim/executor.h"

namespace rispp {

class FixedLatencyBackend : public ExecutionBackend {
 public:
  void on_hot_spot_entry(const WorkloadTrace&, std::size_t, Cycles) override {}
  void on_hot_spot_exit(Cycles) override {}
  Cycles si_execution_latency(SiId si, Cycles) override { return latency_[si]; }
  Cycles si_execution_run_latency(SiId si, std::uint64_t count, Cycles, Cycles,
                                  std::vector<LatencySegment>& segments) override {
    append_latency_segment(segments, count, latency_[si]);
    return latency_[si] * count;
  }
  Cycles si_execution_span(std::span<const SiRun> runs, Cycles now,
                           Cycles per_execution_overhead) override {
    for (const SiRun& run : runs)
      now += run.count * (latency_[run.si] + per_execution_overhead);
    return now;
  }

 protected:
  std::vector<Cycles> latency_;  // per SiId
};

}  // namespace rispp
