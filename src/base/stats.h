// Offline analysis over metrics snapshots — the library behind rispp_stats.
//
// Three input shapes fold into one MetricsDocument:
//   * a registry snapshot ({"counters", "gauges", "histograms"}) as written
//     by RISPP_METRICS — histograms arrive with their full bucket arrays, so
//     quantiles and SLO attainment are computable at any objective;
//   * a flight-recorder ring ({"interval_ms", "windows": [...]}) — the last
//     window's scalars and histogram summaries (no buckets: attainment and
//     off-grid quantiles degrade to "n/a");
//   * a BENCH_SUITE.json — every report's flat metrics map, keys prefixed
//     "<report>/" so two suites diff report-by-report.
//
// The renderers are pure string producers over MetricsDocument so the Stats.*
// tests exercise them without a CLI or the filesystem.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/metrics.h"

namespace rispp::jsonmini {
struct JsonValue;
}

namespace rispp::stats {

/// One histogram as read back from a document. `snapshot.buckets` is empty
/// for ring/suite inputs; the p* fields always carry what the document said.
struct HistogramEntry {
  HistogramSnapshot snapshot;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  bool has_buckets = false;
};

struct MetricsDocument {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramEntry> histograms;
};

/// A histogram series name split at its label suffix:
/// "rtm.arbiter.port_wait_cycles{tenant=3}" → base + ("tenant", 3).
/// Unlabeled names keep base == name and labeled == false.
struct SeriesName {
  std::string base;
  std::string label_key;
  std::uint64_t label_value = 0;
  bool labeled = false;
};
SeriesName parse_series_name(const std::string& name);

/// Reads histogram `name`'s entry of a snapshot or ring window into `out`
/// under the rules both metrics readers share (parse_metrics_document and
/// validate_metrics_json): count, sum, min, max, p50, p90 and p99 are
/// non-negative integers, min <= max and p50 <= p99; buckets, when present,
/// are [upper, count] pairs of non-negative integers with ascending bounds
/// and counts >= 1 that sum to count. Returns the fault, naming the
/// histogram, or nullopt.
std::optional<std::string> read_histogram_entry(const std::string& name,
                                                const jsonmini::JsonValue& value,
                                                HistogramEntry& out);

/// Parses `text` (any of the three shapes above) into `out`. On failure
/// returns false and fills `error`; `out` is left unspecified.
bool parse_metrics_document(const std::string& text, MetricsDocument& out,
                            std::string& error);

/// Reads and parses `path`; empty/unreadable files are errors here (a CLI
/// pointing at a missing snapshot is a user mistake worth a message).
bool load_metrics_document(const std::string& path, MetricsDocument& out,
                           std::string& error);

/// Counters, gauges and histogram summaries (<name>.count/.sum/.min/.max/
/// .p50/.p90/.p99) as one flat name → value map — the diff currency.
std::map<std::string, double> flatten(const MetricsDocument& doc);

/// Per-series SLO attainment for `metric`: one row per series whose base
/// name matches (the unlabeled series plus every label variant, so a
/// per-tenant family renders one row per tenant). Attainment is the fraction
/// of recorded values ≤ `objective` (conservative — bucket-granular);
/// series without buckets show "n/a". Returns nullopt when no series
/// matches.
std::optional<std::string> render_slo_table(const MetricsDocument& doc,
                                            const std::string& metric,
                                            std::uint64_t objective);

/// All histograms (optionally only those whose name contains `filter`) with
/// count/min/max plus the requested quantiles. Quantiles beyond the recorded
/// p50/p90/p99 grid need buckets; without them the cell reads "n/a".
std::string render_quantile_table(const MetricsDocument& doc,
                                  const std::vector<double>& quantiles,
                                  const std::string& filter);

/// The `top` largest relative movements between two documents' flattened
/// views (a metric appearing from zero ranks highest, shown as "new";
/// metrics present on only one side are skipped).
std::string render_diff(const MetricsDocument& base, const MetricsDocument& now,
                        std::size_t top);

}  // namespace rispp::stats
