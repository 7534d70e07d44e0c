#include "base/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "base/check.h"
#include "base/env.h"
#include "base/json_mini.h"
#include "base/trace_event.h"

namespace rispp {
namespace {

// Leaked on purpose: counters registered from function-local statics are
// read by the at-exit flush, which runs after static destructors would.
struct MetricsRegistry {
  std::mutex mutex;
  std::map<std::string, MetricCounter*, std::less<>> counters;
  std::map<std::string, MetricGauge*, std::less<>> gauges;
  std::map<std::string, MetricHistogram*, std::less<>> histograms;
  std::string out_path;  // RISPP_METRICS target, written at exit
};

MetricsRegistry& registry() {
  static MetricsRegistry* r = new MetricsRegistry;
  return *r;
}

void write_metrics_at_exit() {
  MetricsRegistry& r = registry();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    path = r.out_path;
  }
  if (!path.empty()) write_metrics_json(path);
}

/// Shards map recording threads round-robin; with at most kShards live
/// recorders every shard is single-writer and the relaxed fetch_adds never
/// contend.
std::size_t thread_ordinal() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

void atomic_min(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (value < seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// MetricHistogram

struct MetricHistogram::Shard {
  std::array<std::atomic<std::uint64_t>, kBucketCount> counts{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max{0};
};

MetricHistogram::~MetricHistogram() {
  for (auto& slot : shards_) delete slot.load(std::memory_order_acquire);
}

std::size_t MetricHistogram::bucket_index(std::uint64_t value) {
  // Values below two octaves of sub-buckets are their own bucket (exact);
  // above, the top kSubBucketBits+1 bits pick (octave, linear sub-bucket).
  if (value < kSubBuckets * 2) return static_cast<std::size_t>(value);
  const unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(value));
  const unsigned shift = msb - kSubBucketBits;
  return (static_cast<std::size_t>(shift + 1) << kSubBucketBits) +
         static_cast<std::size_t>((value >> shift) & (kSubBuckets - 1));
}

std::uint64_t MetricHistogram::bucket_upper_bound(std::size_t index) {
  RISPP_CHECK(index < kBucketCount);
  if (index < kSubBuckets * 2) return index;
  const unsigned shift = static_cast<unsigned>(index >> kSubBucketBits) - 1;
  const std::uint64_t sub = index & (kSubBuckets - 1);
  const std::uint64_t low = (kSubBuckets + sub) << shift;
  return low + ((std::uint64_t{1} << shift) - 1);
}

MetricHistogram::Shard& MetricHistogram::shard_for_thread() {
  std::atomic<Shard*>& slot = shards_[thread_ordinal() % kShards];
  Shard* shard = slot.load(std::memory_order_acquire);
  if (shard == nullptr) {
    Shard* fresh = new Shard;
    if (slot.compare_exchange_strong(shard, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      shard = fresh;
    } else {
      delete fresh;  // another thread won the install race
    }
  }
  return *shard;
}

void MetricHistogram::record(std::uint64_t value) {
  Shard& s = shard_for_thread();
  s.counts[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  atomic_min(s.min, value);
  atomic_max(s.max, value);
}

HistogramSnapshot MetricHistogram::snapshot() const {
  std::vector<std::uint64_t> totals(kBucketCount, 0);
  HistogramSnapshot out;
  out.min = ~std::uint64_t{0};
  for (const auto& slot : shards_) {
    const Shard* s = slot.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (std::size_t b = 0; b < kBucketCount; ++b)
      totals[b] += s->counts[b].load(std::memory_order_relaxed);
    out.sum += s->sum.load(std::memory_order_relaxed);
    out.min = std::min(out.min, s->min.load(std::memory_order_relaxed));
    out.max = std::max(out.max, s->max.load(std::memory_order_relaxed));
  }
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    if (totals[b] == 0) continue;
    out.count += totals[b];
    out.buckets.emplace_back(bucket_upper_bound(b), totals[b]);
  }
  if (out.count == 0) {
    out.min = 0;
    out.max = 0;
  }
  return out;
}

std::uint64_t HistogramSnapshot::p(double q) const {
  if (count == 0) return 0;
  std::uint64_t target = static_cast<std::uint64_t>(q * static_cast<double>(count));
  if (target >= count) target = count - 1;
  std::uint64_t cumulative = 0;
  for (const auto& [upper, n] : buckets) {
    cumulative += n;
    // The target order statistic lies in this bucket; its upper bound is
    // within one bucket width (≤ 1/kSubBuckets relative) above it. Clamping
    // to the observed max only ever moves the answer closer.
    if (cumulative > target) return std::min(upper, max);
  }
  return max;
}

double HistogramSnapshot::fraction_at_most(std::uint64_t objective) const {
  if (count == 0) return 1.0;
  std::uint64_t attained = 0;
  for (const auto& [upper, n] : buckets) {
    if (upper > objective) break;
    attained += n;
  }
  return static_cast<double>(attained) / static_cast<double>(count);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < buckets.size() || b < other.buckets.size()) {
    if (b >= other.buckets.size() ||
        (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
      merged.push_back(buckets[a++]);
    } else if (a >= buckets.size() || other.buckets[b].first < buckets[a].first) {
      merged.push_back(other.buckets[b++]);
    } else {
      merged.emplace_back(buckets[a].first, buckets[a].second + other.buckets[b].second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
}

// ---------------------------------------------------------------------------
// Registry

MetricCounter& metric_counter(std::string_view name) {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.counters.find(name);
  if (it == r.counters.end())
    it = r.counters.emplace(std::string(name), new MetricCounter).first;
  return *it->second;
}

MetricGauge& metric_gauge(std::string_view name) {
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.gauges.find(name);
  if (it == r.gauges.end())
    it = r.gauges.emplace(std::string(name), new MetricGauge).first;
  return *it->second;
}

MetricHistogram& metric_histogram(std::string_view name) {
  RISPP_CHECK(name.find_first_of("{}=\"") == std::string_view::npos);
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end())
    it = r.histograms.emplace(std::string(name), new MetricHistogram).first;
  return *it->second;
}

MetricHistogram& metric_histogram(std::string_view name, const MetricLabel& label) {
  RISPP_CHECK(name.find_first_of("{}=\"") == std::string_view::npos);
  RISPP_CHECK(!label.key.empty() &&
              label.key.find_first_of("{}=\"") == std::string_view::npos);
  std::string canonical;
  canonical.reserve(name.size() + label.key.size() + 24);
  canonical.append(name);
  canonical.push_back('{');
  canonical.append(label.key);
  canonical.push_back('=');
  canonical.append(std::to_string(label.value));
  canonical.push_back('}');
  MetricsRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.histograms.find(canonical);
  if (it == r.histograms.end())
    it = r.histograms.emplace(std::move(canonical), new MetricHistogram).first;
  return *it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> metrics_counter_snapshot() {
  MetricsRegistry& r = registry();
  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::lock_guard<std::mutex> lock(r.mutex);
  out.reserve(r.counters.size());
  for (const auto& [name, counter] : r.counters) out.emplace_back(name, counter->value());
  return out;
}

std::vector<std::pair<std::string, double>> metrics_gauge_snapshot() {
  MetricsRegistry& r = registry();
  std::vector<std::pair<std::string, double>> out;
  std::lock_guard<std::mutex> lock(r.mutex);
  out.reserve(r.gauges.size());
  for (const auto& [name, gauge] : r.gauges) out.emplace_back(name, gauge->value());
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>> metrics_histogram_snapshot() {
  MetricsRegistry& r = registry();
  // Collect the stable pointers under the lock, merge shards outside it —
  // snapshot() walks 16 × kBucketCount atomics per histogram.
  std::vector<std::pair<std::string, MetricHistogram*>> live;
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    live.reserve(r.histograms.size());
    for (const auto& [name, hist] : r.histograms) live.emplace_back(name, hist);
  }
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(live.size());
  for (const auto& [name, hist] : live) out.emplace_back(name, hist->snapshot());
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot JSON

namespace {

void append_histogram_json(std::ostringstream& out, const HistogramSnapshot& h,
                           bool with_buckets) {
  out << "{\"count\": " << h.count << ", \"sum\": " << h.sum << ", \"min\": " << h.min
      << ", \"max\": " << h.max << ", \"p50\": " << h.p(0.50)
      << ", \"p90\": " << h.p(0.90) << ", \"p99\": " << h.p(0.99);
  if (with_buckets) {
    out << ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i)
      out << (i == 0 ? "" : ", ") << "[" << h.buckets[i].first << ", "
          << h.buckets[i].second << "]";
    out << "]";
  }
  out << "}";
}

void append_snapshot_json(
    std::ostringstream& out, const std::string& indent,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const std::vector<std::pair<std::string, double>>& gauges,
    const std::vector<std::pair<std::string, HistogramSnapshot>>& histograms,
    bool with_buckets) {
  const std::string inner = indent + "  ";
  // Opens entry i of a section: separator, indent and the escaped name.
  const auto key = [&](std::size_t i, const std::string& name) {
    out << (i == 0 ? "\n" : ",\n") << inner << '"';
    jsonmini::write_escaped(out, name);
    out << "\": ";
  };
  out << indent << "\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    key(i, counters[i].first);
    out << counters[i].second;
  }
  out << (counters.empty() ? "}" : "\n" + indent + "}") << ",\n";
  out << indent << "\"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    key(i, gauges[i].first);
    jsonmini::write_number(out, gauges[i].second, gauges[i].first);
  }
  out << (gauges.empty() ? "}" : "\n" + indent + "}") << ",\n";
  out << indent << "\"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    key(i, histograms[i].first);
    append_histogram_json(out, histograms[i].second, with_buckets);
  }
  out << (histograms.empty() ? "}" : "\n" + indent + "}");
}

}  // namespace

std::string metrics_snapshot_json() {
  std::ostringstream out;
  out << "{\n";
  append_snapshot_json(out, "  ", metrics_counter_snapshot(), metrics_gauge_snapshot(),
                       metrics_histogram_snapshot(), /*with_buckets=*/true);
  out << "\n}\n";
  return out.str();
}

bool write_metrics_json(const std::string& path) {
  const std::filesystem::path target(path);
  std::error_code ec;
  if (!target.parent_path().empty())
    std::filesystem::create_directories(target.parent_path(), ec);
  std::ofstream out(target, std::ios::binary | std::ios::trunc);
  out << metrics_snapshot_json();
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "[rispp] cannot write RISPP_METRICS snapshot to %s\n",
                 path.c_str());
    return false;
  }
  return true;
}

void init_metrics_from_env() {
  const char* env = std::getenv("RISPP_METRICS");
  if (env == nullptr || *env == '\0') return;
  MetricsRegistry& r = registry();
  bool arm = false;
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    arm = r.out_path.empty();
    r.out_path = env;
  }
  if (arm) std::atexit(write_metrics_at_exit);
}

// ---------------------------------------------------------------------------
// Snapshot validation (trace_check --metrics and the tests)

namespace {

using jsonmini::JsonValue;

bool is_count(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kNumber && v->number >= 0.0 &&
         v->number == std::floor(v->number);
}

std::optional<std::string> validate_scalar_section(const JsonValue& root,
                                                   std::string_view key,
                                                   bool counts_only) {
  const JsonValue* section = root.find(key);
  if (section == nullptr)
    return "missing \"" + std::string(key) + "\" object";
  if (section->kind != JsonValue::Kind::kObject)
    return "\"" + std::string(key) + "\" is not an object";
  for (const auto& [name, value] : section->object) {
    if (value.kind != JsonValue::Kind::kNumber)
      return "\"" + std::string(key) + "\" entry \"" + name + "\" is not a number";
    if (counts_only && !is_count(&value))
      return "\"" + std::string(key) + "\" entry \"" + name +
             "\" is not a non-negative integer";
  }
  return std::nullopt;
}

std::optional<std::string> validate_histogram_entry(const std::string& name,
                                                    const JsonValue& h) {
  if (h.kind != JsonValue::Kind::kObject)
    return "histogram \"" + name + "\" is not an object";
  for (const char* field : {"count", "sum", "min", "max", "p50", "p90", "p99"}) {
    if (!is_count(h.find(field)))
      return "histogram \"" + name + "\" lacks a non-negative integer \"" +
             field + "\"";
  }
  const double count = h.find("count")->number;
  if (h.find("min")->number > h.find("max")->number)
    return "histogram \"" + name + "\" has min > max";
  if (h.find("p50")->number > h.find("p99")->number)
    return "histogram \"" + name + "\" has p50 > p99";
  const JsonValue* buckets = h.find("buckets");
  if (buckets == nullptr) return std::nullopt;  // ring windows omit buckets
  if (buckets->kind != JsonValue::Kind::kArray)
    return "histogram \"" + name + "\" has a non-array \"buckets\"";
  double total = 0.0;
  double last_upper = -1.0;
  for (const JsonValue& b : buckets->array) {
    if (b.kind != JsonValue::Kind::kArray || b.array.size() != 2 ||
        !is_count(&b.array[0]) || !is_count(&b.array[1]) || b.array[1].number < 1.0)
      return "histogram \"" + name + "\" has a malformed bucket";
    if (b.array[0].number <= last_upper)
      return "histogram \"" + name + "\" has non-ascending bucket bounds";
    last_upper = b.array[0].number;
    total += b.array[1].number;
  }
  if (total != count)
    return "histogram \"" + name + "\" bucket counts do not sum to \"count\"";
  return std::nullopt;
}

std::optional<std::string> validate_snapshot_object(const JsonValue& root) {
  if (root.kind != JsonValue::Kind::kObject) return "snapshot is not an object";
  if (auto err = validate_scalar_section(root, "counters", /*counts_only=*/true))
    return err;
  if (auto err = validate_scalar_section(root, "gauges", /*counts_only=*/false))
    return err;
  const JsonValue* histograms = root.find("histograms");
  if (histograms == nullptr) return "missing \"histograms\" object";
  if (histograms->kind != JsonValue::Kind::kObject)
    return "\"histograms\" is not an object";
  for (const auto& [name, h] : histograms->object)
    if (auto err = validate_histogram_entry(name, h)) return err;
  return std::nullopt;
}

}  // namespace

std::optional<std::string> validate_metrics_json(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (text.empty()) return "empty input";
  JsonValue root;
  std::string error;
  if (!jsonmini::parse_document(text, root, error)) return error;
  if (root.kind != JsonValue::Kind::kObject)
    return "top level is not an object";
  const JsonValue* windows = root.find("windows");
  if (windows == nullptr) return validate_snapshot_object(root);
  // Flight-recorder ring: {"interval_ms": .., "windows": [snapshot, ...]}.
  if (!is_count(root.find("interval_ms")))
    return "ring file lacks a non-negative integer \"interval_ms\"";
  if (windows->kind != JsonValue::Kind::kArray)
    return "\"windows\" is not an array";
  double last_t = -1.0;
  for (const JsonValue& w : windows->array) {
    if (w.kind != JsonValue::Kind::kObject) return "ring window is not an object";
    const JsonValue* t = w.find("t_ms");
    if (t == nullptr || t->kind != JsonValue::Kind::kNumber || t->number < last_t)
      return "ring windows lack monotonically non-decreasing \"t_ms\"";
    last_t = t->number;
    if (auto err = validate_snapshot_object(w)) return err;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Flight recorder

namespace {

struct FlightWindow {
  double t_ms = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

// Leaked for the same reason as the registry: stop_flight_recorder runs from
// atexit, after static destructors would have torn a plain global down.
struct FlightRecorder {
  std::mutex mutex;
  std::condition_variable cv;
  std::thread worker;
  bool running = false;
  bool stop_requested = false;
  FlightRecorderOptions options;
  std::chrono::steady_clock::time_point start_time;
  std::deque<FlightWindow> ring;
};

FlightRecorder& flight_recorder() {
  static FlightRecorder* r = new FlightRecorder;
  return *r;
}

/// One window: registry snapshot into the ring plus (when a trace session is
/// live) 'C' samples on the metrics track so churn shows up as slopes. The
/// sampler thread owns its own trace lane, so its rows stay monotonic no
/// matter what the sim threads emit.
void flight_sample(FlightRecorder& r) {
  FlightWindow w;
  w.t_ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - r.start_time)
               .count();
  w.counters = metrics_counter_snapshot();
  w.gauges = metrics_gauge_snapshot();
  w.histograms = metrics_histogram_snapshot();
  if (trace_enabled()) {
    for (const auto& [name, value] : w.counters)
      trace_counter_now(TraceTrack::kMetrics, trace_intern(name),
                        static_cast<double>(value));
    for (const auto& [name, value] : w.gauges)
      trace_counter_now(TraceTrack::kMetrics, trace_intern(name), value);
    for (const auto& [name, h] : w.histograms) {
      trace_counter_now(TraceTrack::kMetrics, trace_intern(name + ".count"),
                        static_cast<double>(h.count));
      trace_counter_now(TraceTrack::kMetrics, trace_intern(name + ".p99"),
                        static_cast<double>(h.p(0.99)));
    }
  }
  std::lock_guard<std::mutex> lock(r.mutex);
  r.ring.push_back(std::move(w));
  while (r.ring.size() > std::max<std::size_t>(r.options.ring_capacity, 1))
    r.ring.pop_front();
}

void flight_worker(FlightRecorder* r) {
  const auto interval = std::chrono::milliseconds(r->options.interval_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(r->mutex);
      if (r->cv.wait_for(lock, interval, [r] { return r->stop_requested; })) break;
    }
    flight_sample(*r);
  }
  flight_sample(*r);  // final window so short runs still record end-state
}

void write_ring_locked(FlightRecorder& r) {
  if (r.options.ring_path.empty()) return;
  std::ostringstream out;
  out << "{\n  \"interval_ms\": " << r.options.interval_ms << ",\n  \"windows\": [";
  bool first = true;
  for (const FlightWindow& w : r.ring) {
    out << (first ? "\n" : ",\n") << "    {\n      \"t_ms\": ";
    jsonmini::write_number(out, w.t_ms, "t_ms");
    out << ",\n";
    // Summaries only (no buckets): the ring is a timeline, not an archive.
    append_snapshot_json(out, "      ", w.counters, w.gauges, w.histograms,
                         /*with_buckets=*/false);
    out << "\n    }";
    first = false;
  }
  out << (first ? "]" : "\n  ]") << "\n}\n";
  const std::filesystem::path target(r.options.ring_path);
  std::error_code ec;
  if (!target.parent_path().empty())
    std::filesystem::create_directories(target.parent_path(), ec);
  std::ofstream file(target, std::ios::binary | std::ios::trunc);
  file << out.str();
  file.flush();
  if (!file.good())
    std::fprintf(stderr, "[rispp] cannot write flight-recorder ring to %s\n",
                 r.options.ring_path.c_str());
}

}  // namespace

void start_flight_recorder(const FlightRecorderOptions& options) {
  RISPP_CHECK(options.interval_ms >= 1);
  FlightRecorder& r = flight_recorder();
  std::lock_guard<std::mutex> lock(r.mutex);
  if (r.running) return;
  r.running = true;
  r.stop_requested = false;
  r.options = options;
  r.start_time = std::chrono::steady_clock::now();
  r.ring.clear();
  r.worker = std::thread(flight_worker, &r);
}

void stop_flight_recorder() {
  FlightRecorder& r = flight_recorder();
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    if (!r.running) return;
    r.stop_requested = true;
    worker = std::move(r.worker);
  }
  r.cv.notify_all();
  worker.join();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.running = false;
  write_ring_locked(r);
}

void init_flight_recorder_from_env() {
  const long interval =
      parse_env_int("RISPP_METRICS_INTERVAL_MS", 0, 0, 3'600'000);
  if (interval == 0) return;  // unset or an explicit 0 both mean "off"
  FlightRecorderOptions options;
  options.interval_ms = static_cast<int>(interval);
  if (const char* metrics = std::getenv("RISPP_METRICS");
      metrics != nullptr && *metrics != '\0')
    options.ring_path = std::string(metrics) + ".ring.json";
  static bool armed = false;
  if (!armed) {
    armed = true;
    std::atexit(stop_flight_recorder);
  }
  start_flight_recorder(options);
}

}  // namespace rispp
