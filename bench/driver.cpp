#include "bench/driver.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <system_error>
#include <utility>

#include "base/check.h"
#include "base/json_mini.h"
#include "base/stats.h"
#include "base/table.h"
#include "base/trace_event.h"

namespace rispp::bench {

bool glob_match(const std::string& pattern, const std::string& name) {
  // Classic two-pointer wildcard match with '*' backtracking.
  std::size_t p = 0, n = 0, star = std::string::npos, star_n = 0;
  while (n < name.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_n = n;
    } else if (star != std::string::npos) {
      p = star + 1;
      n = ++star_n;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::vector<std::filesystem::path> discover_reports(const std::filesystem::path& bench_dir) {
  std::vector<std::filesystem::path> reports;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(bench_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == "micro_ops") continue;  // google-benchmark micro suite, not a report
    if (::access(entry.path().c_str(), X_OK) != 0) continue;
    reports.push_back(entry.path());
  }
  std::sort(reports.begin(), reports.end());
  return reports;
}

namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

using jsonmini::JsonValue;

/// Parses `text` as one JSON object. Anything else — a syntax error, trailing
/// garbage, a duplicated key, another top-level value — throws naming
/// `context`.
JsonValue parse_object(const std::string& text, const std::string& context) {
  JsonValue doc;
  std::string error;
  RISPP_CHECK_MSG(jsonmini::parse_document(text, doc, error), context << ": " << error);
  RISPP_CHECK_MSG(doc.kind == JsonValue::Kind::kObject, context << ": expected a JSON object");
  return doc;
}

/// `obj[key]` as a number: nullopt when absent, throws when not a number.
std::optional<double> number_field(const JsonValue& obj, std::string_view key,
                                   const std::string& context) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return std::nullopt;
  RISPP_CHECK_MSG(v->kind == JsonValue::Kind::kNumber,
                  context << ": " << key << " is not a number");
  return v->number;
}

/// `obj[key]` as a string: nullopt when absent, throws when not a string.
std::optional<std::string> string_field(const JsonValue& obj, std::string_view key,
                                        const std::string& context) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return std::nullopt;
  RISPP_CHECK_MSG(v->kind == JsonValue::Kind::kString,
                  context << ": " << key << " is not a string");
  return v->string;
}

/// The single BENCH_*.json a child wrote into its private json dir, if any.
std::optional<PerfRecord> collect_child_record(const std::filesystem::path& json_dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(json_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename().string().rfind("BENCH_", 0) != 0) continue;
    if (auto record = parse_perf_record(entry.path())) return record;
  }
  return std::nullopt;
}

}  // namespace

std::optional<PerfRecord> parse_perf_record(const std::filesystem::path& path) {
  const std::string context = path.string();
  const JsonValue doc = parse_object(read_file(path), context);
  const auto bench = string_field(doc, "bench", context);
  const auto wall = number_field(doc, "wall_seconds", context);
  if (!bench || !wall) return std::nullopt;
  PerfRecord record;
  record.bench = *bench;
  record.wall_seconds = *wall;
  record.cells = number_field(doc, "cells", context).value_or(0.0);
  record.cells_per_sec = number_field(doc, "cells_per_sec", context).value_or(0.0);
  record.threads = number_field(doc, "threads", context).value_or(0.0);
  record.frames = number_field(doc, "frames", context).value_or(0.0);
  return record;
}

std::map<std::string, double> parse_metrics_record(const std::filesystem::path& path) {
  const std::string text = read_file(path);
  if (text.empty()) return {};  // child wrote no snapshot: not an error
  stats::MetricsDocument doc;
  std::string error;
  RISPP_CHECK_MSG(stats::parse_metrics_document(text, doc, error),
                  path.string() << ": " << error);
  std::map<std::string, double> flat = stats::flatten(doc);
  // flatten() merges a name two sections share (a counter and a gauge, or a
  // histogram fold such as x.count next to a scalar x.count); only
  // corruption does that, and the merge would silently drop one value.
  constexpr std::size_t kFoldsPerHistogram = 7;  // count/sum/min/max/p50/p90/p99
  RISPP_CHECK_MSG(flat.size() == doc.counters.size() + doc.gauges.size() +
                                     kFoldsPerHistogram * doc.histograms.size(),
                  path.string() << ": a metric name appears in two sections");
  return flat;
}

unsigned compute_child_threads(unsigned total_threads, unsigned jobs, std::size_t unfinished) {
  const std::size_t lanes =
      std::max<std::size_t>(1, std::min<std::size_t>(std::max(1u, jobs), unfinished));
  return std::max<unsigned>(1, std::max(1u, total_threads) / static_cast<unsigned>(lanes));
}

std::vector<ReportResult> run_reports(const std::vector<std::filesystem::path>& binaries,
                                      const DriverOptions& options, std::ostream& status) {
  using Clock = std::chrono::steady_clock;
  const std::filesystem::path log_dir = options.out_dir / "logs";
  const std::filesystem::path json_dir = options.out_dir / "json";
  std::filesystem::create_directories(log_dir);
  std::filesystem::create_directories(json_dir);
  if (!options.trace_dir.empty()) std::filesystem::create_directories(options.trace_dir);

  std::vector<ReportResult> results(binaries.size());
  std::vector<Clock::time_point> started(binaries.size());
  // Per-report trace rows (one lane each, so overlapping children never
  // share a row); traced_names doubles as the "was this report traced" flag.
  std::vector<TraceLane> lanes(binaries.size(), 0);
  std::vector<double> started_us(binaries.size(), 0.0);
  std::vector<const char*> traced_names(binaries.size(), nullptr);
  std::map<pid_t, std::size_t> running;
  std::size_t next = 0, done = 0;

  const auto launch = [&](std::size_t i) {
    // Work-stealing thread split: children launched after other reports
    // already finished inherit the finishers' share of the host's threads
    // instead of the static total/jobs division.
    const std::string threads = std::to_string(
        options.total_threads > 0
            ? compute_child_threads(options.total_threads, options.jobs, binaries.size() - done)
            : options.threads_per_child);
    ReportResult& r = results[i];
    r.binary = binaries[i];
    r.name = binaries[i].filename().string();
    r.log = log_dir / (r.name + ".log");
    const std::filesystem::path child_json = json_dir / r.name;
    std::filesystem::create_directories(child_json);
    const std::string metrics_path = (child_json / "METRICS.json").string();
    const std::string trace_path =
        options.trace_dir.empty()
            ? std::string()
            : (options.trace_dir / (r.name + ".trace.json")).string();

    if (trace_enabled()) {
      lanes[i] = trace_new_lane();
      traced_names[i] = trace_intern(r.name);
      trace_name_lane(TraceTrack::kBench, lanes[i], traced_names[i]);
      started_us[i] = trace_now_us();
    }
    const int fd = ::open(r.log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    RISPP_CHECK_MSG(fd >= 0, "cannot open log " << r.log.string());
    started[i] = Clock::now();
    const pid_t pid = ::fork();
    RISPP_CHECK_MSG(pid >= 0, "fork failed: " << std::strerror(errno));
    if (pid == 0) {
      // Child: own stdout/stderr, a private perf-record dir, and its share
      // of the host's threads so `jobs` children never oversubscribe it.
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
      ::setenv("RISPP_THREADS", threads.c_str(), 1);
      ::setenv("RISPP_BENCH_JSON_DIR", child_json.c_str(), 1);
      ::setenv("RISPP_METRICS", metrics_path.c_str(), 1);
      if (trace_path.empty())
        // A traced driver must not leak its own RISPP_TRACE into children:
        // every child would overwrite the parent's trace file at exit.
        ::unsetenv("RISPP_TRACE");
      else
        ::setenv("RISPP_TRACE", trace_path.c_str(), 1);
      ::execl(binaries[i].c_str(), binaries[i].c_str(), (char*)nullptr);
      std::fprintf(stderr, "exec %s: %s\n", binaries[i].c_str(), std::strerror(errno));
      ::_exit(127);
    }
    ::close(fd);
    running.emplace(pid, i);
  };

  while (next < binaries.size() || !running.empty()) {
    while (next < binaries.size() && running.size() < std::max(1u, options.jobs))
      launch(next++);
    int wstatus = 0;
    const pid_t pid = ::waitpid(-1, &wstatus, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;
      RISPP_CHECK_MSG(false, "waitpid failed: " << std::strerror(errno));
    }
    const auto it = running.find(pid);
    if (it == running.end()) continue;  // not one of ours
    const std::size_t i = it->second;
    running.erase(it);
    ReportResult& r = results[i];
    r.wall_seconds = std::chrono::duration<double>(Clock::now() - started[i]).count();
    r.exit_code = WIFSIGNALED(wstatus) ? 128 + WTERMSIG(wstatus)
                                       : WEXITSTATUS(wstatus);
    r.perf = collect_child_record(json_dir / r.name);
    r.metrics = parse_metrics_record(json_dir / r.name / "METRICS.json");
    if (traced_names[i] != nullptr)
      trace_complete(TraceTrack::kBench, lanes[i], traced_names[i], started_us[i],
                     trace_now_us() - started_us[i]);
    ++done;
    char line[256];
    std::snprintf(line, sizeof line, "[%2zu/%zu] %-28s %8.2fs  %s", done, binaries.size(),
                  r.name.c_str(), r.wall_seconds,
                  r.exit_code == 0 ? "ok" : ("exit " + std::to_string(r.exit_code)).c_str());
    status << line << '\n' << std::flush;
  }
  return results;
}

std::string render_summary_table(const std::vector<ReportResult>& results) {
  TextTable table({"report", "wall [s]", "cells", "cells/s", "exit"});
  for (const ReportResult& r : results) {
    const double cells = r.perf ? r.perf->cells : 0.0;
    const double rate = r.perf ? r.perf->cells_per_sec : 0.0;
    table.add(r.name, format_fixed(r.wall_seconds, 2),
              cells > 0.0 ? format_fixed(cells, 0) : "-",
              rate > 0.0 ? format_fixed(rate, 1) : "-",
              r.exit_code == 0 ? "ok" : std::to_string(r.exit_code));
  }
  return table.render();
}

void write_suite(const std::vector<ReportResult>& results, int frames,
                 const DriverOptions& options, const std::filesystem::path& path) {
  std::ofstream out(path);
  const auto quoted = [&out](std::string_view text) -> std::ostream& {
    out << '"';
    jsonmini::write_escaped(out, text);
    return out << '"';
  };
  out << "{\n"
      << "  \"frames\": " << frames << ",\n"
      << "  \"jobs\": " << options.jobs << ",\n"
      << "  \"threads_per_child\": " << options.threads_per_child << ",\n"
      << "  \"reports\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ReportResult& r = results[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": ";
    quoted(r.name) << ", \"exit_code\": " << r.exit_code
                   << ", \"wall_seconds\": " << r.wall_seconds;
    if (r.perf) {
      out << ", \"bench\": ";
      quoted(r.perf->bench) << ", \"cells\": " << r.perf->cells
                            << ", \"cells_per_sec\": " << r.perf->cells_per_sec
                            << ", \"threads\": " << r.perf->threads;
    }
    if (!r.metrics.empty()) {
      out << ", \"metrics\": {";
      bool first = true;
      for (const auto& [key, value] : r.metrics) {
        out << (first ? "" : ", ");
        quoted(key) << ": ";
        jsonmini::write_number(out, value, key);
        first = false;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  out.flush();
  if (!out.good())
    std::fprintf(stderr, "[driver] failed to write suite record %s\n",
                 path.string().c_str());
}

std::map<std::string, PerfRecord> load_baseline(const std::filesystem::path& path) {
  std::map<std::string, PerfRecord> baseline;
  if (std::filesystem::is_directory(path)) {
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().filename().string().rfind("BENCH_", 0) != 0) continue;
      if (const auto record = parse_perf_record(entry.path()))
        baseline[record->bench] = *record;
    }
    return baseline;
  }
  // BENCH_SUITE.json: one object per report inside "reports": [...].
  const std::string text = read_file(path);
  // A missing/unreadable baseline stays an *empty* map — the CLI reports
  // that case with its own clean diagnostic; the strict checks below only
  // police content that was actually read.
  if (text.empty()) return baseline;
  const std::string context = path.string();
  const JsonValue doc = parse_object(text, context);
  const JsonValue* reports = doc.find("reports");
  if (reports == nullptr) return baseline;
  RISPP_CHECK_MSG(reports->kind == JsonValue::Kind::kArray,
                  context << ": reports is not an array");
  for (const JsonValue& report : reports->array) {
    RISPP_CHECK_MSG(report.kind == JsonValue::Kind::kObject,
                    context << ": a report entry is not an object");
    const auto name = string_field(report, "name", context);
    const auto wall = number_field(report, "wall_seconds", context);
    if (!name || !wall) continue;
    PerfRecord record;
    record.bench = string_field(report, "bench", context).value_or(*name);
    record.wall_seconds = *wall;
    record.cells = number_field(report, "cells", context).value_or(0.0);
    record.cells_per_sec = number_field(report, "cells_per_sec", context).value_or(0.0);
    if (const JsonValue* metrics = report.find("metrics")) {
      RISPP_CHECK_MSG(metrics->kind == JsonValue::Kind::kObject,
                      context << ": metrics of " << *name << " is not an object");
      for (const auto& [key, value] : metrics->object) {
        RISPP_CHECK_MSG(value.kind == JsonValue::Kind::kNumber,
                        context << ": metric " << key << " of " << *name << " is not a number");
        record.metrics[key] = value.number;
      }
    }
    baseline[*name] = std::move(record);
  }
  return baseline;
}

std::vector<std::string> baseline_setup_mismatches(const std::filesystem::path& path,
                                                   int frames, const DriverOptions& options) {
  std::vector<std::string> mismatches;
  if (std::filesystem::is_directory(path)) return mismatches;
  const std::string text = read_file(path);
  if (text.empty()) return mismatches;
  const std::string context = path.string();
  const JsonValue doc = parse_object(text, context);
  const std::pair<const char*, double> fields[] = {
      {"frames", frames},
      {"jobs", options.jobs},
      {"threads_per_child", options.threads_per_child}};
  for (const auto& [key, value] : fields) {
    const auto recorded = number_field(doc, key, context);
    if (!recorded || *recorded == value) continue;
    std::ostringstream line;
    line << key << ": this run " << value << ", baseline " << *recorded;
    mismatches.push_back(line.str());
  }
  return mismatches;
}

RegressionReport compare_against_baseline(const std::vector<ReportResult>& results,
                                          const std::map<std::string, PerfRecord>& baseline,
                                          double threshold) {
  // Wall-clock growth under 50 ms absolute is jitter, not regression: at the
  // CI 8-frame setting a whole report finishes in tens of milliseconds.
  constexpr double kWallSlackSeconds = 0.05;
  RegressionReport report;
  std::map<std::string, bool> seen;
  for (const ReportResult& r : results) {
    if (r.exit_code != 0) continue;  // failures already fail the run itself
    auto it = baseline.find(r.name);
    // A baseline built from a BENCH_<name>.json dir is keyed by the perf
    // record's internal bench name, not the binary name.
    if (it == baseline.end() && r.perf) it = baseline.find(r.perf->bench);
    if (it != baseline.end()) seen[it->first] = true;
    if (it == baseline.end()) continue;  // new report: never gates
    const PerfRecord& base = it->second;
    RegressionDelta delta;
    delta.name = r.name;
    delta.base_wall = base.wall_seconds;
    delta.wall = r.wall_seconds;
    delta.base_rate = base.cells_per_sec;
    delta.rate = r.perf ? r.perf->cells_per_sec : 0.0;
    const bool wall_regressed =
        delta.wall > delta.base_wall * (1.0 + threshold) &&
        delta.wall - delta.base_wall > kWallSlackSeconds;
    const bool rate_regressed = delta.base_rate > 0.0 && delta.rate > 0.0 &&
                                delta.rate * (1.0 + threshold) < delta.base_rate &&
                                (delta.base_rate - delta.rate) * delta.base_wall >
                                    kWallSlackSeconds * delta.base_rate;
    delta.regressed = wall_regressed || rate_regressed;
    report.failed = report.failed || delta.regressed;
    report.deltas.push_back(delta);
    for (const std::string_view counter : kExactCounters) {
      const auto base_it = base.metrics.find(std::string(counter));
      if (base_it == base.metrics.end()) continue;
      const auto now_it = r.metrics.find(std::string(counter));
      if (now_it != r.metrics.end() && now_it->second == base_it->second) continue;
      report.counter_mismatches.push_back(
          r.name + ": " + std::string(counter) + " " +
          (now_it == r.metrics.end() ? std::string("absent") : format_fixed(now_it->second, 0)) +
          " vs baseline " + format_fixed(base_it->second, 0));
      report.failed = true;
    }
  }
  for (const auto& [name, record] : baseline)
    if (!seen.count(name)) report.missing.push_back(name);
  return report;
}

std::string render_regression_table(const RegressionReport& report) {
  TextTable table({"report", "base wall", "wall", "delta", "base c/s", "c/s", "verdict"});
  for (const RegressionDelta& d : report.deltas) {
    const double pct =
        d.base_wall > 0.0 ? (d.wall / d.base_wall - 1.0) * 100.0 : 0.0;
    table.add(d.name, format_fixed(d.base_wall, 3), format_fixed(d.wall, 3),
              format_fixed(pct, 1) + "%",
              d.base_rate > 0.0 ? format_fixed(d.base_rate, 1) : "-",
              d.rate > 0.0 ? format_fixed(d.rate, 1) : "-",
              d.regressed ? "REGRESSED" : "ok");
  }
  return table.render();
}

}  // namespace rispp::bench
