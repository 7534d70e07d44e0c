// perfbench harness: the pieces every workload shares.
//
//  - Report: the metrics one invocation emits (the contract JSON) plus the
//    human-readable detail lines printed above it.
//  - LayerTimes + TimedBackend + TimedScheduler: the traced run's per-layer
//    ledger. The forwarding wrappers time calls into the RTM (or a baseline
//    backend) and the SI scheduler from the benchmark's own code, so nothing
//    in src/ is instrumented. TimedBackend overrides every ExecutionBackend
//    virtual — including si_execution_span and completed_loads — so a traced
//    replay takes exactly the fast path an untraced one does.
//  - MetricsWindow: deltas of the base/metrics counters and histograms the
//    libraries already publish, over a window of the benchmark's choosing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/metrics.h"
#include "base/parallel.h"
#include "sched/schedule.h"
#include "sim/executor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time this process has used so far, summed over its threads. The
/// kernel leaves out time the hypervisor ran other guests on our vCPUs
/// (steal), and idle pool workers block rather than spin.
double process_cpu_seconds();

/// Runs a fixed reference kernel (integer and branch work on a 512 KiB
/// table, about 25 ms of one core) once on every thread of `pool` at once
/// and returns the CPU seconds each took, averaged. The kernel is the
/// benchmark's own code, so only the host's speed moves it: on a 4-vCPU VM
/// it drifted by up to 20% over minutes, in step with the workloads.
double calibration_cpu_s(rispp::ThreadPool& pool);

/// The q-quantile of `values` by rispp::percentile_sorted's rule (0 for an
/// empty list).
double quantile(std::vector<double> values, double q);

/// Median of `values` (0 for an empty list).
double median(std::vector<double> values);

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// Order-sensitive digest of everything a replay reports.
std::uint64_t result_digest(const rispp::SimResult& result);

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  /// Contract metrics, by name (end-to-end when untraced, per-layer when
  /// traced).
  std::map<std::string, Metric> metrics;
  /// Named lines printed above the JSON (the workload's own units).
  std::vector<std::pair<std::string, Metric>> details;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void detail(const std::string& name, double value, const std::string& unit) {
    details.emplace_back(name, Metric{value, unit});
  }
  /// Prints the detail and metric lines, then the one-line JSON result
  /// (last line). The result is correct when nothing failed and every
  /// metric is finite.
  void print() const;
};

/// Host time spent in each layer, accumulated by the forwarding wrappers.
/// One instance per sweep cell (so cells on different threads never share
/// one), merged after the pass.
struct LayerTimes {
  double rtm_entry_s = 0.0;       // RunTimeManager::on_hot_spot_entry
  double schedule_s = 0.0;        // AtomScheduler::schedule (inside the entry)
  double replay_s = 0.0;          // si_execution_* and on_hot_spot_exit
  double baseline_entry_s = 0.0;  // baseline backends' on_hot_spot_entry
  std::uint64_t rtm_entries = 0;
  std::uint64_t schedule_calls = 0;
  std::uint64_t span_calls = 0;

  void merge(const LayerTimes& other);
};

/// Forwards to an AtomScheduler and times schedule().
class TimedScheduler final : public rispp::AtomScheduler {
 public:
  TimedScheduler(const rispp::AtomScheduler& inner, LayerTimes& times)
      : inner_(inner), times_(times) {}
  std::string_view name() const override { return inner_.name(); }
  rispp::Schedule schedule(const rispp::ScheduleRequest& request) const override;

 private:
  const rispp::AtomScheduler& inner_;
  LayerTimes& times_;
};

/// Forwards every ExecutionBackend call to `inner` and times it. `is_rtm`
/// books entries to the RTM layer (else to the baseline layer); `entry_ns`
/// (optional) receives each RTM entry's latency.
class TimedBackend final : public rispp::ExecutionBackend {
 public:
  TimedBackend(rispp::ExecutionBackend& inner, LayerTimes& times, bool is_rtm,
               rispp::MetricHistogram* entry_ns)
      : inner_(inner), times_(times), is_rtm_(is_rtm), entry_ns_(entry_ns) {}

  std::string_view name() const override { return inner_.name(); }
  void on_hot_spot_entry(const rispp::WorkloadTrace& trace, std::size_t instance,
                         rispp::Cycles now) override;
  void on_hot_spot_exit(rispp::Cycles now) override;
  rispp::Cycles si_execution_latency(rispp::SiId si, rispp::Cycles now) override;
  rispp::Cycles si_execution_run_latency(rispp::SiId si, std::uint64_t count,
                                         rispp::Cycles now,
                                         rispp::Cycles per_execution_overhead,
                                         std::vector<rispp::LatencySegment>& segments) override;
  rispp::Cycles si_execution_span(std::span<const rispp::SiRun> runs, rispp::Cycles now,
                                  rispp::Cycles per_execution_overhead) override;
  std::uint64_t completed_loads() const override { return inner_.completed_loads(); }

 private:
  rispp::ExecutionBackend& inner_;
  LayerTimes& times_;
  bool is_rtm_;
  rispp::MetricHistogram* entry_ns_;
};

/// Deltas of the process-wide metrics registry since construction.
class MetricsWindow {
 public:
  MetricsWindow();

  /// Counter growth since construction (0 for an unknown name).
  std::uint64_t counter(std::string_view name) const;
  /// Summed growth of every counter named <prefix>*<suffix>.
  std::uint64_t counter_sum(std::string_view prefix, std::string_view suffix) const;
  /// Histogram growth since construction, merged over the base series and
  /// every labeled series of `name` (name{...}).
  rispp::HistogramSnapshot histogram(std::string_view name) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, rispp::HistogramSnapshot> histograms_;
};

/// hits / (hits + misses), 0 when both are 0.
double hit_rate(std::uint64_t hits, std::uint64_t misses);

}  // namespace perfbench
