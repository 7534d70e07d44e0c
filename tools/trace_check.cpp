// trace_check — validate a Chrome trace JSON written via RISPP_TRACE.
//
//   trace_check out.json                        # well-formedness only
//   trace_check --min-tracks 4 out.json         # plus shape requirements
//   trace_check --require-counter rtm.decision_cache.hits out.json
//   trace_check --metrics METRICS.json          # metrics-snapshot schema
//
// Exit 0 when the file parses, passes the well-formedness rules of
// validate_chrome_trace (matched B/E pairs, per-row monotonic timestamps,
// valid phases) and meets every requirement; 1 when a check fails; 2 on
// usage errors or an unreadable file. CI runs this against the traced fig7
// report before uploading the trace as an artifact.
//
// --metrics switches the subject: the file is validated against the metrics
// snapshot schema instead (validate_metrics_json — a registry snapshot or a
// flight-recorder ring; histogram summaries must be internally consistent,
// bucket arrays must sum to their count). Shape flags don't apply there.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "base/env.h"
#include "base/metrics.h"
#include "base/trace_event.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] <trace.json>\n"
               "  --min-tracks <n>         require >= n distinct tracks (pids)\n"
               "  --min-events <n>         require >= n non-metadata events\n"
               "  --require-counter <name> require a 'C' sample of this counter\n"
               "                           (repeatable)\n"
               "  --metrics                validate a metrics snapshot / ring\n"
               "                           file instead of a Chrome trace\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rispp;

  std::string path;
  long min_tracks = 0;
  long min_events = 0;
  bool metrics_mode = false;
  std::vector<std::string> required_counters;

  const auto next_arg = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--min-tracks") {
      min_tracks = parse_int_or_die("--min-tracks", next_arg(i, "--min-tracks"), 0, 1'000'000);
    } else if (arg == "--min-events") {
      min_events =
          parse_int_or_die("--min-events", next_arg(i, "--min-events"), 0, 1'000'000'000);
    } else if (arg == "--require-counter") {
      required_counters.emplace_back(next_arg(i, "--require-counter"));
    } else if (arg == "--metrics") {
      metrics_mode = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "more than one trace file given\n");
      return 2;
    }
  }
  if (path.empty()) {
    usage(argv[0]);
    return 2;
  }

  if (metrics_mode &&
      (min_tracks > 0 || min_events > 0 || !required_counters.empty())) {
    std::fprintf(stderr, "--metrics does not combine with trace shape flags\n");
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trace_check: cannot open %s\n", path.c_str());
    return 2;
  }
  if (metrics_mode) {
    if (const auto problem = validate_metrics_json(in)) {
      std::fprintf(stderr, "trace_check: %s: %s\n", path.c_str(), problem->c_str());
      return 1;
    }
    std::printf("trace_check: %s: metrics schema ok\n", path.c_str());
    return 0;
  }
  TraceValidation info;
  if (const auto problem = validate_chrome_trace(in, &info)) {
    std::fprintf(stderr, "trace_check: %s: %s\n", path.c_str(), problem->c_str());
    return 1;
  }

  int failures = 0;
  if (static_cast<long>(info.tracks) < min_tracks) {
    std::fprintf(stderr, "trace_check: %s: %zu track(s), need >= %ld\n", path.c_str(),
                 info.tracks, min_tracks);
    ++failures;
  }
  if (static_cast<long>(info.events) < min_events) {
    std::fprintf(stderr, "trace_check: %s: %zu event(s), need >= %ld\n", path.c_str(),
                 info.events, min_events);
    ++failures;
  }
  for (const std::string& name : required_counters) {
    if (!std::binary_search(info.counter_names.begin(), info.counter_names.end(), name)) {
      std::fprintf(stderr, "trace_check: %s: no counter sample named %s\n", path.c_str(),
                   name.c_str());
      ++failures;
    }
  }
  if (failures > 0) return 1;
  std::printf("trace_check: %s: ok (%zu events, %zu tracks, %zu counters)\n", path.c_str(),
              info.events, info.tracks, info.counter_names.size());
  return 0;
}
