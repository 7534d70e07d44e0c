#include "sim/executor.h"

#include "base/check.h"
#include "base/clock.h"
#include "base/metrics.h"
#include "base/trace_event.h"

namespace rispp {

Cycles ExecutionBackend::si_execution_run_latency(SiId si, std::uint64_t count, Cycles now,
                                                  Cycles per_execution_overhead,
                                                  std::vector<LatencySegment>& segments) {
  Cycles total = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Cycles latency = si_execution_latency(si, now);
    append_latency_segment(segments, 1, latency);
    total += latency;
    now += latency + per_execution_overhead;
  }
  return total;
}

Cycles ExecutionBackend::si_execution_span(std::span<const SiRun> runs, Cycles now,
                                           Cycles per_execution_overhead) {
  std::vector<LatencySegment> segments;
  for (const SiRun& run : runs) {
    segments.clear();
    const Cycles total =
        si_execution_run_latency(run.si, run.count, now, per_execution_overhead, segments);
    now += total + run.count * per_execution_overhead;
  }
  return now;
}

namespace {

/// One simulated-time trace row per replay run: a 'B'/'E' span per hot-spot
/// instance on a fresh lane, so overlapping sweep cells never share a row.
/// All names are interned because the trace flush runs at process exit.
struct InstanceTraceRow {
  bool enabled;
  TraceLane lane = 0;
  std::vector<const char*> names;

  InstanceTraceRow(const WorkloadTrace& trace, const ExecutionBackend& backend)
      : enabled(trace_enabled()) {
    if (!enabled) return;
    lane = trace_new_lane();
    std::string label = "instances: ";
    label += backend.name();
    trace_name_lane(TraceTrack::kExecutor, lane, trace_intern(label));
    names.reserve(trace.hot_spots.size());
    for (const HotSpotInfo& h : trace.hot_spots)
      names.push_back(trace_intern(h.name.empty() ? "hot spot" : h.name));
  }
  void begin(std::size_t hot_spot, Cycles at) const {
    if (enabled)
      trace_begin(TraceTrack::kExecutor, lane, names[hot_spot], us_from_cycles(at));
  }
  void end(std::size_t hot_spot, Cycles at) const {
    if (enabled)
      trace_end(TraceTrack::kExecutor, lane, names[hot_spot], us_from_cycles(at));
  }
};

}  // namespace

TraceReplay::TraceReplay(const WorkloadTrace& trace, ExecutionBackend& backend,
                         SimStats* stats, ReplayMode mode)
    : trace_(&trace), backend_(&backend), stats_(stats), mode_(mode) {
  result_.hot_spot_cycles.assign(trace.hot_spots.size(), 0);
  result_.atom_loads = backend.completed_loads();
}

void TraceReplay::step() {
  static MetricCounter& entries = metric_counter("sim.hot_spot_entries");
  const std::size_t instance = next_++;
  const HotSpotInstance& inst = trace_->instances[instance];
  const Cycles overhead = trace_->hot_spots[inst.hot_spot].per_execution_overhead;
  const Cycles entered = result_.total_cycles;
  Cycles now = entered + inst.entry_overhead;
  backend_->on_hot_spot_entry(*trace_, instance, now);
  if (mode_ == ReplayMode::kScalar) {
    // The reference: one backend call (and one stats record) per execution.
    for (const SiRun& run : inst.runs) {
      for (std::uint32_t i = 0; i < run.count; ++i) {
        const Cycles latency = backend_->si_execution_latency(run.si, now);
        if (stats_) stats_->record_execution(run.si, now, latency);
        now += latency + overhead;
      }
    }
  } else if (!stats_) {
    // No per-execution observation needed: let the backend fast-forward
    // the whole instance (port-quiet windows advance in pure arithmetic).
    now = backend_->si_execution_span(std::span<const SiRun>(inst.runs), now, overhead);
  } else {
    for (const SiRun& run : inst.runs) {
      segments_.clear();
      backend_->si_execution_run_latency(run.si, run.count, now, overhead, segments_);
      std::uint64_t segmented = 0;
      for (const LatencySegment& seg : segments_) {
        const Cycles step = seg.latency + overhead;
        stats_->record_run(run.si, now, seg.count, step, seg.latency);
        now += seg.count * step;
        segmented += seg.count;
      }
      RISPP_CHECK_MSG(segmented == run.count,
                      "backend latency segments do not cover the run");
    }
  }
  backend_->on_hot_spot_exit(now);
  entries.add();
  result_.total_cycles = now;
  result_.si_executions += inst.execution_count;
  result_.atom_loads = backend_->completed_loads();
  result_.hot_spot_cycles[inst.hot_spot] += now - entered;
}

SimResult run_trace(const WorkloadTrace& trace, ExecutionBackend& backend, SimStats* stats,
                    ReplayMode mode) {
  TraceReplay replay(trace, backend, stats, mode);
  const InstanceTraceRow row(trace, backend);
  while (!replay.done()) {
    const HotSpotId hot_spot = trace.instances[replay.next_instance()].hot_spot;
    row.begin(hot_spot, replay.clock());
    replay.step();
    row.end(hot_spot, replay.clock());
  }
  return replay.result();
}

}  // namespace rispp
