#include "base/trace_event.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "base/json_mini.h"
#include "base/log.h"
#include "base/metrics.h"

namespace rispp {

namespace trace_detail {
std::atomic<bool> g_enabled{false};
}  // namespace trace_detail

namespace {

// Events per chunk (~400 KB each); chunks chain so a buffer grows while
// tracing without ever moving published events. The per-thread cap bounds a
// runaway trace at ~50 MB of events.
constexpr std::size_t kChunkEvents = std::size_t{1} << 13;
constexpr std::uint64_t kMaxEventsPerThread = std::uint64_t{1} << 20;

struct Event {
  const char* name = nullptr;
  double ts = 0.0;
  double dur = 0.0;
  double value = 0.0;
  std::uint32_t tid = 0;
  TraceTrack track = TraceTrack::kReconfigPort;
  char phase = 'X';
};

struct Chunk {
  std::array<Event, kChunkEvents> events;
  // Single-writer publication: the owning thread stores size with release
  // after filling the slot; the flusher reads it with acquire. Full chunks
  // link the next one the same way.
  std::atomic<std::size_t> size{0};
  std::atomic<Chunk*> next{nullptr};
};

/// One event buffer per emitting thread. Owned (and leaked) by the registry
/// so the at-exit flush can read buffers of threads that already exited.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  Chunk* head = nullptr;
  Chunk* tail = nullptr;          // writer-only
  std::uint64_t appended = 0;     // writer-only
  std::atomic<std::uint64_t> dropped{0};
  std::uint64_t session_skip = 0;  // flushed watermark (registry mutex)

  void append(const Event& e) {
    if (appended >= kMaxEventsPerThread) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::size_t n = tail->size.load(std::memory_order_relaxed);
    if (n == kChunkEvents) {
      Chunk* grown = new Chunk;
      tail->next.store(grown, std::memory_order_release);
      tail = grown;
      n = 0;
    }
    tail->events[n] = e;
    tail->size.store(n + 1, std::memory_order_release);
    ++appended;
  }
};

struct TraceRegistry {
  std::mutex mutex;
  std::vector<ThreadBuffer*> buffers;
  std::unordered_set<std::string> interned;
  std::string out_path;
  bool session_active = false;
};

TraceRegistry& registry() {
  // Leaked: the at-exit flush may run after static destructors.
  static TraceRegistry* r = new TraceRegistry;
  return *r;
}

// Lane ids and thread-buffer ids come from the same counter so a simulated
// lane can never collide with a real thread's row.
std::atomic<std::uint32_t> g_next_tid{1};

// Wall-clock base of the active session (steady-clock nanoseconds).
std::atomic<std::int64_t> g_base_ns{0};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* t_buffer = [] {
    ThreadBuffer* b = new ThreadBuffer;
    b->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    b->head = b->tail = new Chunk;
    TraceRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(b);
    return b;
  }();
  return *t_buffer;
}

void emit(TraceTrack track, TraceLane lane, const char* name, char phase, double ts,
          double dur = 0.0, double value = 0.0) {
  Event e;
  e.name = name;
  e.ts = ts;
  e.dur = dur;
  e.value = value;
  e.tid = lane;
  e.track = track;
  e.phase = phase;
  local_buffer().append(e);
}

/// Walks the published events of `b`, invoking fn on each with index >=
/// skip; returns the published count.
template <typename Fn>
std::uint64_t for_each_published(const ThreadBuffer& b, std::uint64_t skip, Fn&& fn) {
  std::uint64_t index = 0;
  for (const Chunk* c = b.head; c != nullptr; c = c->next.load(std::memory_order_acquire)) {
    const std::size_t n = c->size.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i, ++index)
      if (index >= skip) fn(c->events[i]);
    if (n < kChunkEvents) break;  // later chunks are not published yet
  }
  return index;
}

std::uint64_t count_published(const ThreadBuffer& b) {
  return for_each_published(b, ~std::uint64_t{0}, [](const Event&) {});
}

int track_pid(TraceTrack track) { return static_cast<int>(track) + 1; }

void write_event(std::ostream& out, bool& first, const Event& e) {
  out << (first ? "\n" : ",\n");
  first = false;
  char buf[64];
  if (e.phase == 'M') {
    out << R"({"name":"thread_name","ph":"M","pid":)" << track_pid(e.track)
        << ",\"tid\":" << e.tid << R"(,"args":{"name":")";
    jsonmini::write_escaped(out, e.name);
    out << "\"}}";
    return;
  }
  out << "{\"name\":\"";
  jsonmini::write_escaped(out, e.name);
  out << "\",\"ph\":\"" << e.phase << "\",\"pid\":" << track_pid(e.track)
      << ",\"tid\":" << e.tid;
  std::snprintf(buf, sizeof buf, "%.3f", e.ts);
  out << ",\"ts\":" << buf;
  if (e.phase == 'X') {
    std::snprintf(buf, sizeof buf, "%.3f", e.dur);
    out << ",\"dur\":" << buf;
  } else if (e.phase == 'i') {
    out << ",\"s\":\"t\"";
  } else if (e.phase == 'C') {
    out << ",\"args\":{\"value\":";
    jsonmini::write_number(out, e.value, e.name);
    out << "}";
  }
  out << "}";
}

/// Serializes everything published since the session watermark and advances
/// the watermarks. Caller holds the registry mutex; tracing must already be
/// disabled (or never enabled) so rows stay ordered.
void flush_locked(TraceRegistry& r) {
  const std::filesystem::path target(r.out_path);
  std::error_code ec;
  if (!target.parent_path().empty())
    std::filesystem::create_directories(target.parent_path(), ec);
  std::ofstream out(target, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "[rispp] cannot write RISPP_TRACE file %s\n",
                 r.out_path.c_str());
    return;
  }

  // Pass 1: which tracks appear (for process_name metadata).
  std::array<bool, kTraceTrackCount> present{};
  std::uint64_t dropped = 0;
  for (const ThreadBuffer* b : r.buffers) {
    for_each_published(*b, b->session_skip, [&](const Event& e) {
      present[static_cast<std::size_t>(e.track)] = true;
    });
    dropped += b->dropped.load(std::memory_order_relaxed);
  }
  const auto counters = metrics_counter_snapshot();
  const auto gauges = metrics_gauge_snapshot();
  if (!counters.empty() || !gauges.empty() || dropped > 0)
    present[static_cast<std::size_t>(TraceTrack::kMetrics)] = true;

  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t t = 0; t < kTraceTrackCount; ++t) {
    if (!present[t]) continue;
    out << (first ? "\n" : ",\n");
    first = false;
    out << R"({"name":"process_name","ph":"M","pid":)"
        << track_pid(static_cast<TraceTrack>(t)) << R"(,"tid":0,"args":{"name":")";
    jsonmini::write_escaped(out, trace_track_name(static_cast<TraceTrack>(t)));
    out << "\"}}";
  }

  // Pass 2: the events, one buffer at a time (each (track, lane) row lives
  // in exactly one buffer in emission order, so rows stay monotonic).
  for (ThreadBuffer* b : r.buffers)
    b->session_skip = for_each_published(*b, b->session_skip,
                                         [&](const Event& e) { write_event(out, first, e); });

  // Final registry snapshot as counter samples on the metrics track.
  const double end_ts = trace_now_us();
  const auto write_counter = [&](const std::string& name, double value) {
    Event e;
    e.name = name.c_str();
    e.ts = end_ts >= 0.0 ? end_ts : 0.0;
    e.value = value;
    e.tid = 0;
    e.track = TraceTrack::kMetrics;
    e.phase = 'C';
    write_event(out, first, e);
  };
  for (const auto& [name, value] : counters) write_counter(name, static_cast<double>(value));
  for (const auto& [name, value] : gauges) write_counter(name, value);
  if (dropped > 0) write_counter("trace.dropped_events", static_cast<double>(dropped));

  out << "\n]}\n";
  out.flush();
  if (!out.good())
    std::fprintf(stderr, "[rispp] failed writing RISPP_TRACE file %s\n",
                 r.out_path.c_str());
}

}  // namespace

const char* trace_track_name(TraceTrack track) {
  switch (track) {
    case TraceTrack::kReconfigPort: return "reconfig port";
    case TraceTrack::kExecutor: return "executor";
    case TraceTrack::kRtm: return "run-time manager";
    case TraceTrack::kThreadPool: return "thread pool";
    case TraceTrack::kBench: return "bench driver";
    case TraceTrack::kMetrics: return "metrics";
    case TraceTrack::kFleet: return "fleet";
    case TraceTrack::kArbiter: return "fabric arbiter";
  }
  return "?";
}

TraceLane trace_new_lane() { return g_next_tid.fetch_add(1, std::memory_order_relaxed); }

void trace_name_lane(TraceTrack track, TraceLane lane, const char* name) {
  if (!trace_enabled()) return;
  emit(track, lane, name, 'M', 0.0);
}

const char* trace_intern(std::string_view name) {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.interned.emplace(name).first->c_str();
}

void trace_complete(TraceTrack track, TraceLane lane, const char* name, double ts_us,
                    double dur_us) {
  if (!trace_enabled()) return;
  emit(track, lane, name, 'X', ts_us, dur_us);
}

void trace_begin(TraceTrack track, TraceLane lane, const char* name, double ts_us) {
  if (!trace_enabled()) return;
  emit(track, lane, name, 'B', ts_us);
}

void trace_end(TraceTrack track, TraceLane lane, const char* name, double ts_us) {
  if (!trace_enabled()) return;
  emit(track, lane, name, 'E', ts_us);
}

void trace_instant(TraceTrack track, TraceLane lane, const char* name, double ts_us) {
  if (!trace_enabled()) return;
  emit(track, lane, name, 'i', ts_us);
}

void trace_counter(TraceTrack track, TraceLane lane, const char* name, double ts_us,
                   double value) {
  if (!trace_enabled()) return;
  emit(track, lane, name, 'C', ts_us, 0.0, value);
}

double trace_now_us() {
  return static_cast<double>(steady_ns() - g_base_ns.load(std::memory_order_relaxed)) /
         1000.0;
}

void trace_instant_now(TraceTrack track, const char* name) {
  if (!trace_enabled()) return;
  emit(track, local_buffer().tid, name, 'i', trace_now_us());
}

void trace_counter_now(TraceTrack track, const char* name, double value) {
  if (!trace_enabled()) return;
  emit(track, local_buffer().tid, name, 'C', trace_now_us(), 0.0, value);
}

void trace_begin_now(TraceTrack track, const char* name) {
  if (!trace_enabled()) return;
  emit(track, local_buffer().tid, name, 'B', trace_now_us());
}

void trace_end_now(TraceTrack track, const char* name) {
  if (!trace_enabled()) return;
  emit(track, local_buffer().tid, name, 'E', trace_now_us());
}

TraceSpan::TraceSpan(TraceTrack track, const char* name)
    : name_(name), start_us_(trace_enabled() ? trace_now_us() : -1.0), track_(track) {}

TraceSpan::~TraceSpan() {
  if (start_us_ < 0.0 || !trace_enabled()) return;
  emit(track_, local_buffer().tid, name_, 'X', start_us_, trace_now_us() - start_us_);
}

void start_trace_session(const std::string& path) {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  if (r.session_active) {
    trace_detail::g_enabled.store(false, std::memory_order_relaxed);
    flush_locked(r);
  }
  r.out_path = path;
  for (ThreadBuffer* b : r.buffers) b->session_skip = count_published(*b);
  g_base_ns.store(steady_ns(), std::memory_order_relaxed);
  r.session_active = true;
  trace_detail::g_enabled.store(true, std::memory_order_relaxed);
}

void stop_trace_session() {
  TraceRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  if (!r.session_active) return;
  trace_detail::g_enabled.store(false, std::memory_order_relaxed);
  flush_locked(r);
  r.session_active = false;
}

void init_trace_from_env() {
  const char* env = std::getenv("RISPP_TRACE");
  if (env == nullptr || *env == '\0') return;
  static bool armed = false;
  if (!armed) {
    armed = true;
    std::atexit(stop_trace_session);
  }
  start_trace_session(env);
}

// ---------------------------------------------------------------------------
// Validation: a minimal JSON reader plus the Chrome-trace well-formedness
// rules the tests and tools/trace_check enforce.

namespace {

using jsonmini::JsonValue;

std::optional<double> event_number(const JsonValue& event, std::string_view key) {
  const JsonValue* v = event.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return std::nullopt;
  return v->number;
}

}  // namespace

std::optional<std::string> validate_chrome_trace(std::istream& in, TraceValidation* info) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (text.empty()) return "empty input";

  JsonValue root;
  std::string error;
  if (!jsonmini::parse_document(text, root, error)) return error;

  const JsonValue* events = nullptr;
  if (root.kind == JsonValue::Kind::kArray) {
    events = &root;
  } else if (root.kind == JsonValue::Kind::kObject) {
    events = root.find("traceEvents");
    if (events == nullptr || events->kind != JsonValue::Kind::kArray)
      return "top-level object has no \"traceEvents\" array";
  } else {
    return "top level is neither an array nor an object";
  }

  // Per (pid, tid) row: last timestamp (file-order monotonicity) and the
  // open B-event stack.
  std::map<std::uint64_t, double> last_ts;
  std::map<std::uint64_t, std::vector<std::string>> open;
  std::set<std::int64_t> pids;
  std::set<std::string> counter_names;
  std::size_t event_count = 0;

  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = "event " + std::to_string(i);
    if (e.kind != JsonValue::Kind::kObject) return at + ": not an object";
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString || ph->string.size() != 1)
      return at + ": missing or invalid \"ph\"";
    const char phase = ph->string[0];
    if (std::strchr("XBEiICM", phase) == nullptr)
      return at + ": unsupported phase '" + ph->string + "'";
    const JsonValue* name = e.find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString || name->string.empty())
      return at + ": missing or empty \"name\"";
    const auto pid = event_number(e, "pid");
    const auto tid = event_number(e, "tid");
    if (!pid || !tid) return at + ": missing numeric \"pid\"/\"tid\"";
    if (phase == 'M') continue;  // metadata carries no timestamp

    const auto ts = event_number(e, "ts");
    if (!ts) return at + ": missing numeric \"ts\"";
    const std::uint64_t row = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                                   static_cast<std::int64_t>(*pid)))
                               << 32) |
                              static_cast<std::uint32_t>(static_cast<std::int64_t>(*tid));
    const auto seen = last_ts.find(row);
    if (seen != last_ts.end() && *ts < seen->second - 1e-9)
      return at + " (" + name->string + "): timestamp " + std::to_string(*ts) +
             " goes backwards on pid " + std::to_string(*pid) + " tid " +
             std::to_string(*tid) + " (previous " + std::to_string(seen->second) + ")";
    last_ts[row] = std::max(seen == last_ts.end() ? *ts : seen->second, *ts);

    if (phase == 'X') {
      const auto dur = event_number(e, "dur");
      if (!dur || *dur < 0.0) return at + ": 'X' event without a non-negative \"dur\"";
    } else if (phase == 'B') {
      open[row].push_back(name->string);
    } else if (phase == 'E') {
      auto& stack = open[row];
      if (stack.empty()) return at + ": 'E' event without a matching 'B'";
      if (stack.back() != name->string)
        return at + ": 'E' event \"" + name->string + "\" does not match open 'B' \"" +
               stack.back() + "\"";
      stack.pop_back();
    } else if (phase == 'C') {
      counter_names.insert(name->string);
    }
    pids.insert(static_cast<std::int64_t>(*pid));
    ++event_count;
  }

  for (const auto& [row, stack] : open)
    if (!stack.empty())
      return "unclosed 'B' event \"" + stack.back() + "\" on row " + std::to_string(row);

  if (info != nullptr) {
    info->events = event_count;
    info->tracks = pids.size();
    info->counter_names.assign(counter_names.begin(), counter_names.end());
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Startup hook: every binary that links any instrumented code (they all
// reference trace_enabled's definition here) honors RISPP_LOG_LEVEL,
// RISPP_METRICS and RISPP_TRACE without touching its main().

namespace {
[[maybe_unused]] const bool g_env_bootstrap = [] {
  init_log_level_from_env();
  init_metrics_from_env();
  init_trace_from_env();
  // Last so its atexit hook runs first (LIFO): the sampler stops before the
  // trace flush and the final metrics write see a quiet registry.
  init_flight_recorder_from_env();
  return true;
}();
}  // namespace

}  // namespace rispp
