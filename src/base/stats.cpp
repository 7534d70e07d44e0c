#include "base/stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "base/json_mini.h"
#include "base/table.h"

namespace rispp::stats {

namespace {

using jsonmini::JsonValue;

bool is_object(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kObject;
}

/// 2^64: the double a written UINT64_MAX reads back as.
constexpr double kTwoTo64 = 18446744073709551616.0;

/// `v` as a count: a non-negative integer up to 2^64 (read as UINT64_MAX).
/// Converting anything else to std::uint64_t is undefined behaviour.
std::optional<std::uint64_t> as_count(const JsonValue* v) {
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber || !(v->number >= 0.0) ||
      v->number != std::floor(v->number) || v->number > kTwoTo64)
    return std::nullopt;
  if (v->number == kTwoTo64) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(v->number);
}

bool parse_scalar_section(const JsonValue& doc, const char* section,
                          std::map<std::string, double>& out, std::string& error) {
  const JsonValue* obj = doc.find(section);
  if (obj == nullptr) return true;  // a window may omit an empty section
  if (obj->kind != JsonValue::Kind::kObject) {
    error = std::string(section) + " is not an object";
    return false;
  }
  for (const auto& [name, value] : obj->object) {
    if (value.kind != JsonValue::Kind::kNumber) {
      error = std::string(section) + " entry " + name + " is not a number";
      return false;
    }
    out[name] = value.number;
  }
  return true;
}

bool parse_histogram_section(const JsonValue& doc,
                             std::map<std::string, HistogramEntry>& out,
                             std::string& error) {
  const JsonValue* obj = doc.find("histograms");
  if (obj == nullptr) return true;
  if (obj->kind != JsonValue::Kind::kObject) {
    error = "histograms is not an object";
    return false;
  }
  for (const auto& [name, value] : obj->object) {
    HistogramEntry entry;
    if (auto fault = read_histogram_entry(name, value, entry)) {
      error = std::move(*fault);
      return false;
    }
    out[name] = std::move(entry);
  }
  return true;
}

bool parse_suite(const JsonValue& doc, MetricsDocument& out, std::string& error) {
  const JsonValue* reports = doc.find("reports");
  if (reports == nullptr || reports->kind != JsonValue::Kind::kArray) {
    error = "reports is not an array";
    return false;
  }
  for (const JsonValue& report : reports->array) {
    if (report.kind != JsonValue::Kind::kObject) {
      error = "reports holds a non-object entry";
      return false;
    }
    const JsonValue* name = report.find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) {
      error = "a report entry lacks a name";
      return false;
    }
    const JsonValue* metrics = report.find("metrics");
    if (metrics == nullptr) continue;  // reports without a snapshot are fine
    if (metrics->kind != JsonValue::Kind::kObject) {
      error = "metrics of " + name->string + " is not an object";
      return false;
    }
    for (const auto& [key, value] : metrics->object) {
      if (value.kind != JsonValue::Kind::kNumber) {
        error = "metric " + key + " of " + name->string + " is not a number";
        return false;
      }
      // Suite metrics are already flat (histograms folded to summaries), so
      // everything lands in the scalar map under a per-report prefix.
      out.gauges[name->string + "/" + key] = value.number;
    }
  }
  return true;
}

/// Integral values print without an exponent; everything else gets %.6g.
std::string fmt_number(double value) {
  if (value == std::floor(value) && std::abs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

std::string fmt_quantile_label(double q) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", q * 100.0);
  return std::string("p") + buf;
}

/// Series rows of one base name, unlabeled first, then by label value.
std::vector<std::pair<std::string, const HistogramEntry*>> series_of(
    const MetricsDocument& doc, const std::string& base) {
  std::vector<std::pair<std::string, const HistogramEntry*>> rows;
  std::vector<std::pair<SeriesName, const HistogramEntry*>> matched;
  for (const auto& [name, entry] : doc.histograms) {
    SeriesName series = parse_series_name(name);
    if (series.base != base) continue;
    matched.emplace_back(std::move(series), &entry);
  }
  std::stable_sort(matched.begin(), matched.end(), [](const auto& a, const auto& b) {
    if (a.first.labeled != b.first.labeled) return !a.first.labeled;
    if (a.first.label_key != b.first.label_key) return a.first.label_key < b.first.label_key;
    return a.first.label_value < b.first.label_value;
  });
  for (const auto& [series, entry] : matched) {
    std::string label = "(all)";
    if (series.labeled)
      label = series.label_key + "=" + std::to_string(series.label_value);
    rows.emplace_back(std::move(label), entry);
  }
  return rows;
}

}  // namespace

std::optional<std::string> read_histogram_entry(const std::string& name,
                                                const JsonValue& value, HistogramEntry& out) {
  const std::string histogram = "histogram \"" + name + "\"";
  if (value.kind != JsonValue::Kind::kObject) return histogram + " is not an object";
  const std::pair<const char*, std::uint64_t*> fields[] = {
      {"count", &out.snapshot.count}, {"sum", &out.snapshot.sum}, {"min", &out.snapshot.min},
      {"max", &out.snapshot.max},     {"p50", &out.p50},          {"p90", &out.p90},
      {"p99", &out.p99}};
  for (const auto& [field, slot] : fields) {
    const auto count = as_count(value.find(field));
    if (!count)
      return histogram + " lacks a summary field: \"" + field +
             "\" must be a non-negative integer";
    *slot = *count;
  }
  if (out.snapshot.min > out.snapshot.max) return histogram + " has min > max";
  if (out.p50 > out.p99) return histogram + " has p50 > p99";
  out.snapshot.buckets.clear();
  const JsonValue* buckets = value.find("buckets");
  out.has_buckets = buckets != nullptr;
  if (buckets == nullptr) return std::nullopt;  // ring windows omit buckets
  if (buckets->kind != JsonValue::Kind::kArray)
    return histogram + " has a non-array \"buckets\"";
  std::uint64_t total = 0;
  for (const JsonValue& pair : buckets->array) {
    const bool is_pair = pair.kind == JsonValue::Kind::kArray && pair.array.size() == 2;
    const auto upper = is_pair ? as_count(&pair.array[0]) : std::nullopt;
    const auto count = is_pair ? as_count(&pair.array[1]) : std::nullopt;
    if (!upper || !count || *count == 0) return histogram + " has a malformed bucket";
    if (!out.snapshot.buckets.empty() && *upper <= out.snapshot.buckets.back().first)
      return histogram + " has non-ascending bucket bounds";
    if (*count > out.snapshot.count - total)
      return histogram + " bucket counts do not sum to \"count\"";
    total += *count;
    out.snapshot.buckets.emplace_back(*upper, *count);
  }
  if (total != out.snapshot.count)
    return histogram + " bucket counts do not sum to \"count\"";
  return std::nullopt;
}

SeriesName parse_series_name(const std::string& name) {
  SeriesName out;
  out.base = name;
  if (name.empty() || name.back() != '}') return out;
  const std::size_t open = name.rfind('{');
  if (open == std::string::npos) return out;
  const std::string inner = name.substr(open + 1, name.size() - open - 2);
  const std::size_t eq = inner.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= inner.size()) return out;
  std::uint64_t value = 0;
  for (std::size_t p = eq + 1; p < inner.size(); ++p) {
    if (!std::isdigit(static_cast<unsigned char>(inner[p]))) return out;
    value = value * 10 + static_cast<std::uint64_t>(inner[p] - '0');
  }
  out.base = name.substr(0, open);
  out.label_key = inner.substr(0, eq);
  out.label_value = value;
  out.labeled = true;
  return out;
}

bool parse_metrics_document(const std::string& text, MetricsDocument& out,
                            std::string& error) {
  out = MetricsDocument{};
  JsonValue doc;
  if (!jsonmini::parse_document(text, doc, error)) return false;
  if (doc.kind != JsonValue::Kind::kObject) {
    error = "document is not a JSON object";
    return false;
  }
  if (doc.find("reports") != nullptr) return parse_suite(doc, out, error);
  if (const JsonValue* windows = doc.find("windows")) {
    // Flight-recorder ring: the last window is the freshest end state.
    if (windows->kind != JsonValue::Kind::kArray) {
      error = "windows is not an array";
      return false;
    }
    if (windows->array.empty()) {
      error = "ring has no windows";
      return false;
    }
    const JsonValue& last = windows->array.back();
    if (last.kind != JsonValue::Kind::kObject) {
      error = "ring window is not an object";
      return false;
    }
    return parse_scalar_section(last, "counters", out.counters, error) &&
           parse_scalar_section(last, "gauges", out.gauges, error) &&
           parse_histogram_section(last, out.histograms, error);
  }
  if (!is_object(doc.find("counters")) || !is_object(doc.find("gauges"))) {
    error = "not a metrics snapshot (no counters/gauges), ring, or suite";
    return false;
  }
  return parse_scalar_section(doc, "counters", out.counters, error) &&
         parse_scalar_section(doc, "gauges", out.gauges, error) &&
         parse_histogram_section(doc, out.histograms, error);
}

bool load_metrics_document(const std::string& path, MetricsDocument& out,
                           std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = path + ": cannot open";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (text.empty()) {
    error = path + ": empty file";
    return false;
  }
  if (!parse_metrics_document(text, out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

std::map<std::string, double> flatten(const MetricsDocument& doc) {
  std::map<std::string, double> flat = doc.counters;
  for (const auto& [name, value] : doc.gauges) flat[name] = value;
  for (const auto& [name, entry] : doc.histograms) {
    flat[name + ".count"] = static_cast<double>(entry.snapshot.count);
    flat[name + ".sum"] = static_cast<double>(entry.snapshot.sum);
    flat[name + ".min"] = static_cast<double>(entry.snapshot.min);
    flat[name + ".max"] = static_cast<double>(entry.snapshot.max);
    flat[name + ".p50"] = static_cast<double>(entry.p50);
    flat[name + ".p90"] = static_cast<double>(entry.p90);
    flat[name + ".p99"] = static_cast<double>(entry.p99);
  }
  return flat;
}

std::optional<std::string> render_slo_table(const MetricsDocument& doc,
                                            const std::string& metric,
                                            std::uint64_t objective) {
  const auto rows = series_of(doc, metric);
  if (rows.empty()) return std::nullopt;
  TextTable table({"series", "count", "p50", "p99",
                   "<= " + std::to_string(objective)});
  for (const auto& [label, entry] : rows) {
    std::string attainment = "n/a";
    if (entry->has_buckets) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f%%",
                    entry->snapshot.fraction_at_most(objective) * 100.0);
      attainment = buf;
    }
    table.add(label, std::to_string(entry->snapshot.count),
              std::to_string(entry->p50), std::to_string(entry->p99), attainment);
  }
  return table.render();
}

std::string render_quantile_table(const MetricsDocument& doc,
                                  const std::vector<double>& quantiles,
                                  const std::string& filter) {
  std::vector<std::string> header = {"histogram", "count", "min", "max"};
  for (const double q : quantiles) header.push_back(fmt_quantile_label(q));
  TextTable table(std::move(header));
  for (const auto& [name, entry] : doc.histograms) {
    if (!filter.empty() && name.find(filter) == std::string::npos) continue;
    std::vector<std::string> row = {name, std::to_string(entry.snapshot.count),
                                    std::to_string(entry.snapshot.min),
                                    std::to_string(entry.snapshot.max)};
    for (const double q : quantiles) {
      if (entry.has_buckets) {
        row.push_back(std::to_string(entry.snapshot.p(q)));
      } else if (q == 0.5) {
        row.push_back(std::to_string(entry.p50));
      } else if (q == 0.9) {
        row.push_back(std::to_string(entry.p90));
      } else if (q == 0.99) {
        row.push_back(std::to_string(entry.p99));
      } else {
        // Off the recorded p50/p90/p99 grid and no buckets to interpolate.
        row.emplace_back("n/a");
      }
    }
    table.add_row(std::move(row));
  }
  return table.render();
}

std::string render_diff(const MetricsDocument& base, const MetricsDocument& now,
                        std::size_t top) {
  const auto base_flat = flatten(base);
  const auto now_flat = flatten(now);
  struct Row {
    const std::string* key;
    double base, now, magnitude;
  };
  std::vector<Row> rows;
  for (const auto& [key, now_value] : now_flat) {
    const auto it = base_flat.find(key);
    if (it == base_flat.end() || it->second == now_value) continue;
    const double magnitude = it->second != 0.0
                                 ? std::abs(now_value / it->second - 1.0)
                                 : std::numeric_limits<double>::infinity();
    rows.push_back({&key, it->second, now_value, magnitude});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.magnitude > b.magnitude; });
  if (rows.size() > top) rows.resize(top);
  if (rows.empty()) return "(no overlapping metrics changed)\n";
  TextTable table({"metric", "base", "now", "delta"});
  for (const Row& row : rows) {
    const std::string delta =
        row.base != 0.0 ? format_fixed((row.now / row.base - 1.0) * 100.0, 1) + "%"
                        : std::string("new");
    table.add(*row.key, fmt_number(row.base), fmt_number(row.now), delta);
  }
  return table.render();
}

}  // namespace rispp::stats
