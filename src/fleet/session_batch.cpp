#include "fleet/session_batch.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <string>
#include <thread>

#include "base/check.h"
#include "base/metrics.h"
#include "base/quantile.h"
#include "isa/si.h"
#include "base/trace_event.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp::fleet {

namespace {

const char* content_name(Content content) {
  return content == Content::kH264 ? "h264" : "jpeg";
}

/// The memo every batch that names none shares (leaked: never destroyed
/// while sessions may still run at exit).
SharedDecisionCache& global_memo() {
  static SharedDecisionCache* memo = new SharedDecisionCache();
  return *memo;
}

}  // namespace

SessionBatch::SessionBatch(std::vector<SessionSpec> specs, const FleetOptions& options)
    : specs_(std::move(specs)), options_(options) {
  if (options_.traces == nullptr) options_.traces = &TraceRepository::global();
  if (options_.shared_cache == nullptr) options_.shared_cache = &global_memo();
  const std::size_t n = specs_.size();

  // Validate scheduler names up front: a bad spec must fail at construction,
  // not halfway through a fleet run on a pool worker.
  for (const SessionSpec& spec : specs_) (void)make_scheduler(spec.scheduler);

  // Resolve cohorts (content → shared trace) serially; the repository
  // generates each distinct content exactly once.
  std::vector<std::uint32_t> cohort_of(n);
  std::map<const TraceEntry*, std::uint32_t> cohort_ids;
  for (std::size_t s = 0; s < n; ++s) {
    const TraceEntry& entry = options_.traces->get(specs_[s]);
    const auto [it, inserted] =
        cohort_ids.emplace(&entry, static_cast<std::uint32_t>(cohorts_.size()));
    if (inserted) cohorts_.push_back(&entry);
    cohort_of[s] = it->second;
  }

  results_.resize(n);
  latency_ms_.assign(n, 0.0);
  dc_hits_.assign(n, 0);
  dc_misses_.assign(n, 0);
  if (options_.collect_stats) stats_.resize(n);

  // Blocks: per cohort, sessions in arrival order, chunks of block_size;
  // the global block order is by arrival so the pool's FIFO ownership deals
  // work out in the order sessions become runnable.
  const unsigned block_size = std::max(1u, options_.block_size);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return specs_[a].arrival_ms < specs_[b].arrival_ms;
  });
  std::vector<Block*> open(cohorts_.size(), nullptr);
  std::vector<std::unique_ptr<Block>> built;
  for (const std::uint32_t s : order) {
    const std::uint32_t cohort = cohort_of[s];
    if (open[cohort] == nullptr || open[cohort]->sessions.size() >= block_size) {
      built.push_back(std::make_unique<Block>());
      open[cohort] = built.back().get();
      open[cohort]->cohort = cohort;
      open[cohort]->arrival_ms = specs_[s].arrival_ms;
    }
    open[cohort]->sessions.push_back(s);
  }
  blocks_.reserve(built.size());
  for (auto& block : built) blocks_.push_back(std::move(*block));
  std::stable_sort(blocks_.begin(), blocks_.end(),
                   [](const Block& a, const Block& b) { return a.arrival_ms < b.arrival_ms; });
  if (trace_enabled())
    for (Block& block : blocks_) {
      const SessionSpec& first = specs_[block.sessions.front()];
      block.trace_name = trace_intern(std::string("block ") + content_name(first.content) +
                                      " x" + std::to_string(block.sessions.size()));
    }
}

void SessionBatch::run_block(const Block& block) {
  // Honor the arrival schedule: a block never starts before its earliest
  // member arrives (blocks are dealt in arrival order, so a sleeping worker
  // models the arrival process, not a scheduling artifact).
  const auto arrival_point =
      start_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(block.arrival_ms));
  if (std::chrono::steady_clock::now() < arrival_point)
    std::this_thread::sleep_until(arrival_point);
  if (block.trace_name != nullptr)
    trace_begin_now(TraceTrack::kFleet, block.trace_name);

  const TraceEntry& entry = *cohorts_[block.cohort];
  const WorkloadTrace& trace = entry.trace;
  const std::size_t k = block.sessions.size();

  // Per-session backends and their replays.
  std::vector<std::unique_ptr<AtomScheduler>> schedulers(k);
  std::vector<std::unique_ptr<RunTimeManager>> backends(k);
  std::vector<TraceReplay> replays;
  replays.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t s = block.sessions[i];
    const SessionSpec& spec = specs_[s];
    schedulers[i] = make_scheduler(spec.scheduler);
    RtmConfig config;
    config.container_count = spec.container_count;
    config.scheduler = schedulers[i].get();
    config.forecast_mode = spec.forecast_mode;
    config.decision_memo = options_.shared_cache;
    config.session_id = s;
    backends[i] = std::make_unique<RunTimeManager>(&entry.set, trace.hot_spots.size(), config);
    seed_forecasts(*backends[i], entry.seeds);
    if (options_.collect_stats) stats_[s] = std::make_unique<SimStats>(entry.set.si_count());
    replays.emplace_back(trace, *backends[i], options_.collect_stats ? stats_[s].get() : nullptr);
  }

  // Instance-major stepping: the shared instance (and its run array) stays
  // cache-resident while every session of the block consumes it. Each
  // session makes exactly the backend calls of a solo run_trace, so
  // per-session results are bit-identical to a solo replay.
  for (std::size_t idx = 0; idx < trace.instances.size(); ++idx)
    for (TraceReplay& replay : replays) replay.step();

  const auto done = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t s = block.sessions[i];
    results_[s] = replays[i].result();
    dc_hits_[s] = backends[i]->decision_cache_hits();
    dc_misses_[s] = backends[i]->decision_cache_misses();
    // Completion latency from the session's own arrival; the block is the
    // scheduling quantum, so its members complete together.
    const double since_start =
        std::chrono::duration<double, std::milli>(done - start_).count();
    latency_ms_[s] = since_start - specs_[s].arrival_ms;
  }
  if (block.trace_name != nullptr) trace_end_now(TraceTrack::kFleet, block.trace_name);
}

void SessionBatch::run() {
  static MetricCounter& sessions_metric = metric_counter("fleet.sessions_completed");
  ThreadPool& pool = options_.pool != nullptr ? *options_.pool : ThreadPool::global();
  start_ = std::chrono::steady_clock::now();
  pool.parallel_for(blocks_.size(), [&](std::size_t b) { run_block(blocks_[b]); });
  sessions_metric.add(specs_.size());
}

const SimStats* SessionBatch::stats(std::size_t s) const {
  return s < stats_.size() ? stats_[s].get() : nullptr;
}

FleetReport run_fleet(SessionBatch& batch) {
  FleetReport report;
  report.sessions = batch.session_count();
  if (report.sessions == 0) return report;

  const SharedDecisionCache& cache = *batch.options().shared_cache;
  const std::uint64_t hits0 = cache.hits();
  const std::uint64_t misses0 = cache.misses();
  const std::uint64_t cross0 = cache.cross_session_hits();

  const auto t0 = std::chrono::steady_clock::now();
  batch.run();
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  report.sessions_per_min =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.sessions) * 60.0 / report.wall_seconds
          : 0.0;

  std::vector<double> latencies(report.sessions);
  for (std::size_t s = 0; s < report.sessions; ++s) latencies[s] = batch.latency_ms(s);
  // Shared report path (base/quantile.h): the whole distribution lands in the
  // histogram (as µs) while the reported two points stay bit-exact with the
  // old sort-based block.
  const PercentilePair<double> latency_pcts =
      record_and_percentiles(latencies, metric_histogram("fleet.session_latency_us"),
                             /*to_units=*/1000.0);
  report.latency_p50_ms = latency_pcts.p50;
  report.latency_p99_ms = latency_pcts.p99;

  report.cache_hits = cache.hits() - hits0;
  report.cache_misses = cache.misses() - misses0;
  report.cross_session_hits = cache.cross_session_hits() - cross0;
  const std::uint64_t lookups = report.cache_hits + report.cache_misses;
  report.cross_session_hit_rate =
      lookups > 0 ? static_cast<double>(report.cross_session_hits) / static_cast<double>(lookups)
                  : 0.0;

  std::uint64_t checksum = fingerprint_mix(0, report.sessions);
  for (std::size_t s = 0; s < report.sessions; ++s)
    checksum = fingerprint_mix(checksum, batch.result(s).total_cycles);
  report.cycles_checksum = checksum;

  metric_gauge("fleet.sessions_per_min").set(report.sessions_per_min);
  metric_gauge("fleet.session_latency_p50_ms").set(report.latency_p50_ms);
  metric_gauge("fleet.session_latency_p99_ms").set(report.latency_p99_ms);
  metric_gauge("fleet.cross_session_hit_rate").set(report.cross_session_hit_rate);
  return report;
}

FleetReport run_fleet(const std::vector<SessionSpec>& specs, const FleetOptions& options) {
  SessionBatch batch(specs, options);
  return run_fleet(batch);
}

}  // namespace rispp::fleet
