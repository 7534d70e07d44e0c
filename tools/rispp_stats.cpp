// rispp_stats — offline analysis over metrics snapshots.
//
//   rispp_stats run/METRICS.json                      # quantile table
//   rispp_stats --filter fleet. run/METRICS.json      # only fleet series
//   rispp_stats --q 0.5,0.99,0.999 run/METRICS.json   # custom quantiles
//   rispp_stats --slo 250000 --metric fleet.contended.session_cycles
//               run/METRICS.json                      # per-tenant attainment
//   rispp_stats --diff old/METRICS.json run/METRICS.json   # movements
//
// Accepts a RISPP_METRICS snapshot, a flight-recorder ring (last window), or
// a rispp_bench BENCH_SUITE.json (per-report flat metrics). SLO attainment
// and off-grid quantiles need the snapshot's bucket arrays; ring windows and
// suite records carry summaries only, so those cells degrade to "n/a".
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "base/env.h"
#include "base/stats.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] <metrics.json>\n"
               "  --slo <value>     objective (metric units); prints per-series\n"
               "                    attainment; requires --metric\n"
               "  --metric <name>   histogram base name for --slo\n"
               "  --q <list>        comma-separated quantiles in (0,1)\n"
               "                    (default 0.5,0.9,0.99)\n"
               "  --filter <text>   only histograms whose name contains <text>\n"
               "  --diff <base>     largest movements from <base> to <metrics.json>\n"
               "  --top <n>         rows for --diff (default 10)\n",
               argv0);
}

/// Strict quantile-list parse; exits 2 naming the offending token.
std::vector<double> parse_quantiles(const char* text) {
  std::vector<double> out;
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    const double q = std::strtod(p, &end);
    if (end == p || q <= 0.0 || q >= 1.0) {
      std::fprintf(stderr, "--q: '%s' is not a quantile in (0,1)\n", p);
      std::exit(2);
    }
    out.push_back(q);
    p = end;
    if (*p == ',') ++p;
    else if (*p != '\0') {
      std::fprintf(stderr, "--q: unexpected '%c' in '%s'\n", *p, text);
      std::exit(2);
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "--q: empty quantile list\n");
    std::exit(2);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rispp;

  std::string input;
  std::string diff_base;
  std::string metric;
  std::string filter;
  std::vector<double> quantiles = {0.5, 0.9, 0.99};
  bool quantiles_overridden = false;
  long slo = -1;
  std::size_t top = 10;

  const auto next_arg = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--slo") {
      const auto n = parse_int_strict(next_arg(i, "--slo"), 0,
                                      std::numeric_limits<long>::max());
      if (!n) { std::fprintf(stderr, "--slo: not a non-negative integer\n"); return 2; }
      slo = *n;
    } else if (arg == "--metric") metric = next_arg(i, "--metric");
    else if (arg == "--q") {
      // First --q drops the default grid; repeats accumulate.
      const auto qs = parse_quantiles(next_arg(i, "--q"));
      if (!quantiles_overridden) { quantiles.clear(); quantiles_overridden = true; }
      quantiles.insert(quantiles.end(), qs.begin(), qs.end());
    }
    else if (arg == "--filter") filter = next_arg(i, "--filter");
    else if (arg == "--diff") diff_base = next_arg(i, "--diff");
    else if (arg == "--top") {
      const auto n = parse_int_strict(next_arg(i, "--top"), 1, 10'000);
      if (!n) { std::fprintf(stderr, "--top: not a positive integer\n"); return 2; }
      top = static_cast<std::size_t>(*n);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else if (input.empty()) {
      input = arg;
    } else {
      std::fprintf(stderr, "unexpected extra argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (input.empty()) {
    std::fprintf(stderr, "missing <metrics.json>\n");
    usage(argv[0]);
    return 2;
  }
  if (slo >= 0 && metric.empty()) {
    std::fprintf(stderr, "--slo requires --metric <histogram base name>\n");
    return 2;
  }
  if (slo < 0 && !metric.empty()) {
    std::fprintf(stderr, "--metric requires --slo <objective>\n");
    return 2;
  }

  stats::MetricsDocument doc;
  std::string error;
  if (!stats::load_metrics_document(input, doc, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  if (!diff_base.empty()) {
    stats::MetricsDocument base;
    if (!stats::load_metrics_document(diff_base, base, error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("metric movements %s -> %s (top %zu):\n%s", diff_base.c_str(),
                input.c_str(), top, stats::render_diff(base, doc, top).c_str());
    return 0;
  }

  if (slo >= 0) {
    const auto table =
        stats::render_slo_table(doc, metric, static_cast<std::uint64_t>(slo));
    if (!table) {
      std::fprintf(stderr, "no histogram series named %s in %s\n", metric.c_str(),
                   input.c_str());
      return 1;
    }
    std::printf("SLO attainment for %s (objective %ld):\n%s", metric.c_str(), slo,
                table->c_str());
    return 0;
  }

  if (doc.histograms.empty()) {
    std::fprintf(stderr, "%s holds no histogram series (suite records fold\n"
                 "histograms flat — point rispp_stats at a METRICS.json snapshot,\n"
                 "or use --diff to compare two documents)\n",
                 input.c_str());
    return 1;
  }
  std::printf("%s", stats::render_quantile_table(doc, quantiles, filter).c_str());
  return 0;
}
