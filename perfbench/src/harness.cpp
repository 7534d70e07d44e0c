#include "harness.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>

#include "base/quantile.h"
#include "isa/si.h"

namespace perfbench {

using namespace rispp;

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double calibration_cpu_s(ThreadPool& pool) {
  const unsigned threads = pool.thread_count();
  std::atomic<std::uint64_t> sink{0};  // keeps the loops live
  const double start = process_cpu_seconds();
  pool.parallel_for(threads, [&](std::size_t t) {
    std::vector<std::uint64_t> table(1 << 16);
    std::uint64_t x = 2 * t + 1;
    const auto step = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (std::uint64_t& slot : table) slot = step();
    std::uint64_t acc = 0;
    for (int i = 0; i < 2'000'000; ++i) {
      std::uint64_t& slot = table[(step() ^ acc) & (table.size() - 1)];
      if ((slot & 3) == 0) acc += slot >> 3;
      else acc ^= slot * 0x9E3779B97F4A7C15ULL;
      slot += acc;
    }
    sink.fetch_xor(acc, std::memory_order_relaxed);
  });
  return (process_cpu_seconds() - start) / threads;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, q);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

std::uint64_t result_digest(const SimResult& result) {
  std::uint64_t hash = fingerprint_mix(0, result.total_cycles);
  hash = fingerprint_mix(hash, result.si_executions);
  hash = fingerprint_mix(hash, result.atom_loads);
  for (Cycles c : result.hot_spot_cycles) hash = fingerprint_mix(hash, c);
  return hash;
}

double hit_rate(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

namespace {

// Shortest round-trip form: every measured digit, nothing invented.
std::string json_number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

}  // namespace

void Report::print() const {
  for (const auto& [name, metric] : details)
    std::printf("%-34s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  for (const auto& [name, metric] : metrics)
    std::printf("%-34s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string body;
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) finite = false;
    if (!body.empty()) body += ", ";
    body += "\"" + name + "\": {\"value\": " +
            json_number(std::isfinite(metric.value) ? metric.value : 0.0) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += (finite && failed == 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void LayerTimes::merge(const LayerTimes& other) {
  rtm_entry_s += other.rtm_entry_s;
  schedule_s += other.schedule_s;
  replay_s += other.replay_s;
  baseline_entry_s += other.baseline_entry_s;
  rtm_entries += other.rtm_entries;
  schedule_calls += other.schedule_calls;
  span_calls += other.span_calls;
}

Schedule TimedScheduler::schedule(const ScheduleRequest& request) const {
  const auto start = Clock::now();
  Schedule result = inner_.schedule(request);
  times_.schedule_s += seconds_since(start);
  ++times_.schedule_calls;
  return result;
}

void TimedBackend::on_hot_spot_entry(const WorkloadTrace& trace, std::size_t instance,
                                     Cycles now) {
  const auto start = Clock::now();
  inner_.on_hot_spot_entry(trace, instance, now);
  const auto elapsed = Clock::now() - start;
  const double seconds = std::chrono::duration<double>(elapsed).count();
  if (!is_rtm_) {
    times_.baseline_entry_s += seconds;
    return;
  }
  times_.rtm_entry_s += seconds;
  ++times_.rtm_entries;
  if (entry_ns_ != nullptr)
    entry_ns_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
}

void TimedBackend::on_hot_spot_exit(Cycles now) {
  const auto start = Clock::now();
  inner_.on_hot_spot_exit(now);
  times_.replay_s += seconds_since(start);
}

Cycles TimedBackend::si_execution_latency(SiId si, Cycles now) {
  const auto start = Clock::now();
  const Cycles latency = inner_.si_execution_latency(si, now);
  times_.replay_s += seconds_since(start);
  return latency;
}

Cycles TimedBackend::si_execution_run_latency(SiId si, std::uint64_t count, Cycles now,
                                              Cycles per_execution_overhead,
                                              std::vector<LatencySegment>& segments) {
  const auto start = Clock::now();
  const Cycles total =
      inner_.si_execution_run_latency(si, count, now, per_execution_overhead, segments);
  times_.replay_s += seconds_since(start);
  return total;
}

Cycles TimedBackend::si_execution_span(std::span<const SiRun> runs, Cycles now,
                                       Cycles per_execution_overhead) {
  const auto start = Clock::now();
  const Cycles end = inner_.si_execution_span(runs, now, per_execution_overhead);
  times_.replay_s += seconds_since(start);
  ++times_.span_calls;
  return end;
}

MetricsWindow::MetricsWindow() {
  for (auto& [name, value] : metrics_counter_snapshot()) counters_[name] = value;
  for (auto& [name, snap] : metrics_histogram_snapshot()) histograms_[name] = std::move(snap);
}

std::uint64_t MetricsWindow::counter(std::string_view name) const {
  for (const auto& [now_name, value] : metrics_counter_snapshot()) {
    if (now_name != name) continue;
    const auto it = counters_.find(now_name);
    return value - (it == counters_.end() ? 0 : it->second);
  }
  return 0;
}

std::uint64_t MetricsWindow::counter_sum(std::string_view prefix,
                                         std::string_view suffix) const {
  std::uint64_t total = 0;
  for (const auto& [name, value] : metrics_counter_snapshot()) {
    const std::string_view n = name;
    if (n.size() < prefix.size() + suffix.size() || !n.starts_with(prefix) ||
        !n.ends_with(suffix))
      continue;
    const auto it = counters_.find(name);
    total += value - (it == counters_.end() ? 0 : it->second);
  }
  return total;
}

HistogramSnapshot MetricsWindow::histogram(std::string_view name) const {
  HistogramSnapshot merged;
  for (const auto& [series, now] : metrics_histogram_snapshot()) {
    const std::string_view s = series;
    if (s != name && !(s.starts_with(name) && s.size() > name.size() && s[name.size()] == '{'))
      continue;
    // Bucket-wise difference against the window start; max stays the
    // series' running max, which only ever clamps p() from above.
    HistogramSnapshot delta;
    const auto before_it = histograms_.find(series);
    std::map<std::uint64_t, std::uint64_t> before;
    if (before_it != histograms_.end())
      for (const auto& [upper, n] : before_it->second.buckets) before[upper] = n;
    for (const auto& [upper, n] : now.buckets) {
      const std::uint64_t grown = n - before[upper];
      if (grown != 0) delta.buckets.emplace_back(upper, grown);
      delta.count += grown;
    }
    if (delta.count == 0) continue;
    delta.sum = now.sum - (before_it != histograms_.end() ? before_it->second.sum : 0);
    delta.min = now.min;
    delta.max = now.max;
    merged.merge(delta);
  }
  return merged;
}

}  // namespace perfbench
