// The rispp_stats analysis library (base/stats.h): document parsing for all
// three input shapes (snapshot, flight-recorder ring, bench suite), series
// label parsing, SLO attainment, quantile extraction and the two-document
// diff — all over in-memory strings, no CLI or filesystem.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/json_mini.h"
#include "base/metrics.h"
#include "base/stats.h"

namespace rispp {
namespace {

// A realistic two-bucket histogram entry: 3 values <= 100, 1 value <= 200.
const char* kSnapshotDoc = R"({
  "counters": {
    "rtm.forecast.mispredicts": 12
  },
  "gauges": {
    "fleet.sessions_per_min": 180.5
  },
  "histograms": {
    "fleet.contended.session_cycles": {
      "count": 4, "sum": 500, "min": 90, "max": 200,
      "p50": 100, "p90": 200, "p99": 200,
      "buckets": [[100, 3], [200, 1]]
    },
    "fleet.contended.session_cycles{tenant=0}": {
      "count": 2, "sum": 190, "min": 90, "max": 100,
      "p50": 100, "p90": 100, "p99": 100,
      "buckets": [[100, 2]]
    },
    "fleet.contended.session_cycles{tenant=1}": {
      "count": 2, "sum": 310, "min": 110, "max": 200,
      "p50": 200, "p90": 200, "p99": 200,
      "buckets": [[200, 2]]
    }
  }
})";

TEST(Stats, ParsesSeriesNames) {
  const auto plain = stats::parse_series_name("rtm.decision_latency_ns");
  EXPECT_FALSE(plain.labeled);
  EXPECT_EQ(plain.base, "rtm.decision_latency_ns");

  const auto labeled = stats::parse_series_name("x.y{tenant=13}");
  EXPECT_TRUE(labeled.labeled);
  EXPECT_EQ(labeled.base, "x.y");
  EXPECT_EQ(labeled.label_key, "tenant");
  EXPECT_EQ(labeled.label_value, 13u);

  // Malformed label suffixes degrade to unlabeled, never crash.
  EXPECT_FALSE(stats::parse_series_name("x{tenant=}").labeled);
  EXPECT_FALSE(stats::parse_series_name("x{=3}").labeled);
  EXPECT_FALSE(stats::parse_series_name("x{tenant=abc}").labeled);
  EXPECT_FALSE(stats::parse_series_name("x{tenant3}").labeled);
}

TEST(Stats, ParsesASnapshotDocument) {
  stats::MetricsDocument doc;
  std::string error;
  ASSERT_TRUE(stats::parse_metrics_document(kSnapshotDoc, doc, error)) << error;
  EXPECT_EQ(doc.counters.at("rtm.forecast.mispredicts"), 12.0);
  EXPECT_EQ(doc.gauges.at("fleet.sessions_per_min"), 180.5);
  ASSERT_EQ(doc.histograms.size(), 3u);
  const auto& all = doc.histograms.at("fleet.contended.session_cycles");
  EXPECT_TRUE(all.has_buckets);
  EXPECT_EQ(all.snapshot.count, 4u);
  EXPECT_EQ(all.snapshot.buckets.size(), 2u);
  EXPECT_EQ(all.p99, 200u);
}

TEST(Stats, RejectsMalformedDocuments) {
  stats::MetricsDocument doc;
  std::string error;
  EXPECT_FALSE(stats::parse_metrics_document("[]", doc, error));
  EXPECT_FALSE(stats::parse_metrics_document("{\"foo\": 1}", doc, error));
  EXPECT_FALSE(stats::parse_metrics_document(
      "{\"counters\": {}, \"gauges\": {}, \"histograms\": {\"h\": {\"count\": 1}}}", doc,
      error));
  EXPECT_NE(error.find("lacks a summary field"), std::string::npos) << error;
  EXPECT_FALSE(stats::parse_metrics_document("{\"counters\": 3, \"gauges\": {}}", doc,
                                             error));
  // A duplicated key: any first- or last-wins read would drop a value.
  EXPECT_FALSE(stats::parse_metrics_document(
      "{\"counters\": {\"a\": 1, \"a\": 2}, \"gauges\": {}}", doc, error));
  EXPECT_NE(error.find("duplicate key"), std::string::npos) << error;
}

TEST(Stats, ParsesTheLastRingWindow) {
  const std::string ring = R"({
    "interval_ms": 20,
    "windows": [
      {"t_ms": 0, "counters": {"c": 1}, "gauges": {}, "histograms": {}},
      {"t_ms": 20, "counters": {"c": 5}, "gauges": {"g": 2.5}, "histograms": {
        "h": {"count": 3, "sum": 30, "min": 5, "max": 20,
              "p50": 10, "p90": 20, "p99": 20}
      }}
    ]
  })";
  stats::MetricsDocument doc;
  std::string error;
  ASSERT_TRUE(stats::parse_metrics_document(ring, doc, error)) << error;
  EXPECT_EQ(doc.counters.at("c"), 5.0) << "must read the last window";
  EXPECT_EQ(doc.gauges.at("g"), 2.5);
  const auto& h = doc.histograms.at("h");
  EXPECT_FALSE(h.has_buckets) << "ring windows omit buckets";
  EXPECT_EQ(h.p50, 10u);
}

TEST(Stats, ParsesASuiteIntoPrefixedScalars) {
  const std::string suite = R"({
    "frames": 8, "jobs": 2, "threads_per_child": 1,
    "reports": [
      {"name": "fig7", "exit_code": 0, "wall_seconds": 1.5,
       "metrics": {"rtm.decisions": 42, "rtm.decision_latency_ns.p99": 900}},
      {"name": "fig9", "exit_code": 0, "wall_seconds": 0.5}
    ]
  })";
  stats::MetricsDocument doc;
  std::string error;
  ASSERT_TRUE(stats::parse_metrics_document(suite, doc, error)) << error;
  EXPECT_TRUE(doc.histograms.empty());
  EXPECT_EQ(doc.gauges.at("fig7/rtm.decisions"), 42.0);
  EXPECT_EQ(doc.gauges.at("fig7/rtm.decision_latency_ns.p99"), 900.0);
}

TEST(Stats, FlattenFoldsHistogramSummaries) {
  stats::MetricsDocument doc;
  std::string error;
  ASSERT_TRUE(stats::parse_metrics_document(kSnapshotDoc, doc, error)) << error;
  const auto flat = stats::flatten(doc);
  EXPECT_EQ(flat.at("rtm.forecast.mispredicts"), 12.0);
  EXPECT_EQ(flat.at("fleet.contended.session_cycles.count"), 4.0);
  EXPECT_EQ(flat.at("fleet.contended.session_cycles{tenant=1}.p99"), 200.0);
}

TEST(Stats, SloTableRanksTenantsAndComputesAttainment) {
  stats::MetricsDocument doc;
  std::string error;
  ASSERT_TRUE(stats::parse_metrics_document(kSnapshotDoc, doc, error)) << error;

  const auto table =
      stats::render_slo_table(doc, "fleet.contended.session_cycles", 100);
  ASSERT_TRUE(table.has_value());
  // Aggregate row first, then tenants in numeric order; tenant 0 meets the
  // objective fully, tenant 1 not at all (buckets are conservative).
  const std::size_t all_at = table->find("(all)");
  const std::size_t t0_at = table->find("tenant=0");
  const std::size_t t1_at = table->find("tenant=1");
  ASSERT_NE(all_at, std::string::npos);
  ASSERT_NE(t0_at, std::string::npos);
  ASSERT_NE(t1_at, std::string::npos);
  EXPECT_LT(all_at, t0_at);
  EXPECT_LT(t0_at, t1_at);
  EXPECT_NE(table->find("100.00%"), std::string::npos);
  EXPECT_NE(table->find("0.00%"), std::string::npos);
  EXPECT_NE(table->find("75.00%"), std::string::npos);  // 3 of 4 overall

  EXPECT_FALSE(stats::render_slo_table(doc, "no.such.metric", 1).has_value());
}

TEST(Stats, QuantileTableReadsBucketsAndDegradesWithoutThem) {
  stats::MetricsDocument doc;
  std::string error;
  ASSERT_TRUE(stats::parse_metrics_document(kSnapshotDoc, doc, error)) << error;
  const std::string table =
      stats::render_quantile_table(doc, {0.5, 0.999}, "tenant=1");
  EXPECT_NE(table.find("fleet.contended.session_cycles{tenant=1}"), std::string::npos);
  EXPECT_EQ(table.find("{tenant=0}"), std::string::npos) << "filter must apply";
  EXPECT_NE(table.find("p99.9"), std::string::npos);

  // Without buckets, only the recorded p50/p90/p99 grid answers.
  stats::MetricsDocument ring;
  ASSERT_TRUE(stats::parse_metrics_document(
      R"({"interval_ms": 1, "windows": [{"t_ms": 0, "counters": {}, "gauges": {},
          "histograms": {"h": {"count": 1, "sum": 7, "min": 7, "max": 7,
                               "p50": 7, "p90": 7, "p99": 7}}}]})",
      ring, error))
      << error;
  const std::string degraded = stats::render_quantile_table(ring, {0.5, 0.999}, "");
  EXPECT_NE(degraded.find("n/a"), std::string::npos);
}

TEST(Stats, DiffRanksLargestRelativeMovements) {
  stats::MetricsDocument base, now;
  std::string error;
  ASSERT_TRUE(stats::parse_metrics_document(
      R"({"counters": {"nudged": 100, "tripled": 100, "from_zero": 0,
          "steady": 5}, "gauges": {}})",
      base, error))
      << error;
  ASSERT_TRUE(stats::parse_metrics_document(
      R"({"counters": {"nudged": 110, "tripled": 300, "from_zero": 4,
          "steady": 5}, "gauges": {}})",
      now, error))
      << error;

  const std::string diff = stats::render_diff(base, now, 2);
  // from_zero has infinite relative change and tripled beats nudged; the 10%
  // move falls off the top-2 cut, and an unchanged metric never appears.
  const std::size_t zero_at = diff.find("from_zero");
  const std::size_t tripled_at = diff.find("tripled");
  ASSERT_NE(zero_at, std::string::npos);
  ASSERT_NE(tripled_at, std::string::npos);
  EXPECT_LT(zero_at, tripled_at);
  EXPECT_NE(diff.find("new"), std::string::npos);
  EXPECT_NE(diff.find("200.0%"), std::string::npos);
  EXPECT_EQ(diff.find("nudged"), std::string::npos);
  EXPECT_EQ(diff.find("steady"), std::string::npos);

  const std::string empty = stats::render_diff(base, base, 5);
  EXPECT_NE(empty.find("no overlapping metrics changed"), std::string::npos);
}

TEST(Stats, RoundTripsALiveRegistrySnapshot) {
  // The end-to-end path the CLI takes: registry → metrics_snapshot_json() →
  // parse → SLO table over a labeled family registered right here.
  metric_histogram("stats.test.rt_cycles", {"tenant", 0}).record(50);
  metric_histogram("stats.test.rt_cycles", {"tenant", 0}).record(60);
  metric_histogram("stats.test.rt_cycles", {"tenant", 1}).record(5'000);

  stats::MetricsDocument doc;
  std::string error;
  ASSERT_TRUE(stats::parse_metrics_document(metrics_snapshot_json(), doc, error))
      << error;
  const auto table = stats::render_slo_table(doc, "stats.test.rt_cycles", 100);
  ASSERT_TRUE(table.has_value());
  EXPECT_NE(table->find("tenant=0"), std::string::npos);
  EXPECT_NE(table->find("tenant=1"), std::string::npos);
  EXPECT_NE(table->find("100.00%"), std::string::npos);
  EXPECT_NE(table->find("0.00%"), std::string::npos);
}

TEST(Stats, RejectsNonJsonNumbers) {
  // strtod alone reads every one of these as a number; JSON has none of them.
  for (const char* value : {"0x10", "inf", "+5", "nan", "01", "1e400"}) {
    const std::string text = std::string(R"({"counters": {"b": )") + value +
                             R"(}, "gauges": {}, "histograms": {}})";
    stats::MetricsDocument doc;
    std::string error;
    EXPECT_FALSE(stats::parse_metrics_document(text, doc, error)) << text;
    std::istringstream in(text);
    EXPECT_TRUE(validate_metrics_json(in).has_value()) << text;
  }
}

TEST(Stats, BothReadersApplyTheSameHistogramRules) {
  // rispp_stats and trace_check --metrics read histogram entries through
  // one rule set: same verdict, same message, and no cast of a negative,
  // fractional or out-of-range number to an unsigned count.
  const auto snapshot = [](const std::string& h) {
    return R"({"counters": {}, "gauges": {}, "histograms": {"h": )" + h + "}}";
  };
  const std::string summary = R"("sum": 9, "min": 9, "max": 9, "p50": 9, "p90": 9, "p99": 9)";
  const std::pair<std::string, const char*> refused[] = {
      {R"({"count": 2, )" + summary + R"(, "buckets": [[100, -1], [50, 3.5]]})",
       "malformed bucket"},
      {R"({"count": 2, )" + summary + R"(, "buckets": [[100, 1.5], [200, 0.5]]})",
       "malformed bucket"},
      {R"({"count": 0, )" + summary + R"(, "buckets": [[100, 0]]})", "malformed bucket"},
      {R"({"count": 2, )" + summary + R"(, "buckets": [[100, 1], [50, 1]]})",
       "non-ascending bucket bounds"},
      {R"({"count": 3, )" + summary + R"(, "buckets": [[100, 1], [200, 1]]})",
       "do not sum"},
      {R"({"count": 1, )" + summary + R"(, "buckets": [[100, 1], [200, 1]]})",
       "do not sum"},
      {R"({"count": 1, "sum": 9, "min": 10, "max": 9, "p50": 9, "p90": 9, "p99": 9})",
       "min > max"},
      {R"({"count": 1, "sum": 9, "min": 9, "max": 9, "p50": 10, "p90": 9, "p99": 9})",
       "p50 > p99"},
      {R"({"count": 1e20, )" + summary + "}", "summary field"},
      {R"({"count": 1, "sum": -9, "min": 9, "max": 9, "p50": 9, "p90": 9, "p99": 9})",
       "summary field"},
  };
  for (const auto& [entry, fault] : refused) {
    const std::string text = snapshot(entry);
    stats::MetricsDocument doc;
    std::string error;
    EXPECT_FALSE(stats::parse_metrics_document(text, doc, error)) << text;
    std::istringstream in(text);
    const std::optional<std::string> problem = validate_metrics_json(in);
    ASSERT_TRUE(problem.has_value()) << text;
    EXPECT_EQ(error, *problem) << text;
    EXPECT_NE(error.find("histogram \"h\""), std::string::npos) << error;
    EXPECT_NE(error.find(fault), std::string::npos) << error;
  }

  // The top bucket's bound is UINT64_MAX, which reads back as 2^64.
  const std::string top = snapshot(
      R"({"count": 1, )" + summary + R"(, "buckets": [[18446744073709551615, 1]]})");
  stats::MetricsDocument doc;
  std::string error;
  ASSERT_TRUE(stats::parse_metrics_document(top, doc, error)) << error;
  EXPECT_EQ(doc.histograms.at("h").snapshot.buckets.at(0).first,
            std::numeric_limits<std::uint64_t>::max());
  std::istringstream in(top);
  const std::optional<std::string> problem = validate_metrics_json(in);
  EXPECT_FALSE(problem.has_value()) << *problem;
}

TEST(Stats, SnapshotRefusesANonFiniteGauge) {
  MetricGauge& gauge = metric_gauge("stats.test.not_finite");
  gauge.set(std::numeric_limits<double>::quiet_NaN());
  try {
    (void)metrics_snapshot_json();
    ADD_FAILURE() << "a NaN gauge was written";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"stats.test.not_finite\""), std::string::npos)
        << e.what();
  }
  gauge.set(0.0);
  stats::MetricsDocument doc;
  std::string error;
  EXPECT_TRUE(stats::parse_metrics_document(metrics_snapshot_json(), doc, error)) << error;
}

TEST(Stats, SnapshotEscapesMetricNames) {
  // Names reach the snapshot (and the flight-recorder ring, which shares its
  // writer) as JSON keys: a quote or a control character must be escaped,
  // or the repository's own reader refuses the file.
  const std::string counter = "stats.test.q\"uote\\d";
  const std::string gauge = "stats.test.g\"auge\ttab";
  const std::string histogram = "stats.test.hist\x01\nctl";
  metric_counter(counter).add(7);
  metric_gauge(gauge).set(2.5);
  metric_histogram(histogram).record(42);
  const std::string json = metrics_snapshot_json();

  stats::MetricsDocument doc;
  std::string error;
  ASSERT_TRUE(stats::parse_metrics_document(json, doc, error)) << error;
  ASSERT_EQ(doc.counters.count(counter), 1u);
  EXPECT_EQ(doc.counters.at(counter), 7.0);
  ASSERT_EQ(doc.gauges.count(gauge), 1u);
  EXPECT_EQ(doc.gauges.at(gauge), 2.5);
  ASSERT_EQ(doc.histograms.count(histogram), 1u);
  EXPECT_EQ(doc.histograms.at(histogram).snapshot.count, 1u);

  std::istringstream in(json);
  const std::optional<std::string> invalid = validate_metrics_json(in);
  EXPECT_FALSE(invalid.has_value()) << *invalid;
}

TEST(JsonMini, EscapedControlCharactersRoundTrip) {
  // write_escaped writes a control character as \u00XX; the reader must turn
  // it back into the byte, or a name one tool writes reads back as six
  // characters in the next.
  std::string all;
  for (int c = 0x01; c < 0x20; ++c) all += static_cast<char>(c);
  all += "\"\\";
  std::vector<std::string> originals;
  for (const char c : all) originals.emplace_back(1, c);
  originals.push_back("t" + all + "ab");
  for (const std::string& original : originals) {
    std::ostringstream out;
    out << '"';
    jsonmini::write_escaped(out, original);
    out << '"';
    jsonmini::JsonValue value;
    std::string error;
    ASSERT_TRUE(jsonmini::parse_document(out.str(), value, error))
        << out.str() << ": " << error;
    ASSERT_EQ(value.kind, jsonmini::JsonValue::Kind::kString);
    EXPECT_EQ(value.string, original) << out.str();
  }
}

TEST(JsonMini, UnicodeEscapesNeedFourHexDigits) {
  jsonmini::JsonValue value;
  std::string error;
  EXPECT_FALSE(jsonmini::parse_document(R"("\u00zz")", value, error));
  EXPECT_NE(error.find("invalid \\u escape"), std::string::npos) << error;
  EXPECT_FALSE(jsonmini::parse_document(R"("\u12")", value, error));
  // Below U+0080 an escape decodes to its byte; beyond, it stays verbatim.
  ASSERT_TRUE(jsonmini::parse_document(R"("A\u0041\u00e9")", value, error)) << error;
  EXPECT_EQ(value.string, "AA\\u00e9");
}

TEST(JsonMini, NumbersFollowTheJsonGrammar) {
  const std::pair<const char*, double> accepted[] = {
      {"0", 0.0},     {"-0", 0.0},     {"12", 12.0},   {"-1.5e3", -1500.0},
      {"2E+2", 200.0}, {"0.25", 0.25}, {"1e-2", 0.01}, {"[1,-2]", 0.0}};
  for (const auto& [text, expected] : accepted) {
    jsonmini::JsonValue value;
    std::string error;
    ASSERT_TRUE(jsonmini::parse_document(text, value, error)) << text << ": " << error;
    if (value.kind == jsonmini::JsonValue::Kind::kArray) continue;
    EXPECT_EQ(value.kind, jsonmini::JsonValue::Kind::kNumber) << text;
    EXPECT_EQ(value.number, expected) << text;
  }
  for (const char* text : {"0x10", "inf", "-inf", "nan", "Infinity", "+5", "01", "1.", ".5",
                           "1e", "1e+", "-", "1e400"}) {
    jsonmini::JsonValue value;
    std::string error;
    EXPECT_FALSE(jsonmini::parse_document(text, value, error)) << text;
    const std::string member = std::string(R"({"a": )") + text + "}";
    EXPECT_FALSE(jsonmini::parse_document(member, value, error)) << member;
  }
}

TEST(JsonMini, WriteNumberRoundTripsAndRefusesNonFinite) {
  for (const double v : {0.0, 3.0, -42.0, 0.5, 1.0 / 3.0, 1e20, -2.5e-300}) {
    std::ostringstream out;
    jsonmini::write_number(out, v, "v");
    jsonmini::JsonValue value;
    std::string error;
    ASSERT_TRUE(jsonmini::parse_document(out.str(), value, error))
        << out.str() << ": " << error;
    EXPECT_EQ(value.number, v) << out.str();
  }
  std::ostringstream integer;
  jsonmini::write_number(integer, 123456789012.0, "v");
  EXPECT_EQ(integer.str(), "123456789012");
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    std::ostringstream out;
    EXPECT_THROW(jsonmini::write_number(out, v, "fleet.gauge"), std::invalid_argument);
    EXPECT_TRUE(out.str().empty()) << out.str();
  }
}

}  // namespace
}  // namespace rispp
