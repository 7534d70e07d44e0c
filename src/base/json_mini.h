// Minimal recursive-descent JSON reader shared by the validators and the
// stats toolchain.
//
// This started life inside trace_event.cpp as the Chrome-trace validator's
// private parser; the metrics snapshot validator, rispp_stats and the bench
// driver need the same thing, so it lives here now. It is a *reader* for trusted-ish tool
// input, not a general JSON library: numbers must follow the JSON grammar
// and become double, a \u escape below U+0080 decodes to its byte while
// others are kept verbatim (no UTF-8 decoding), object keys preserve file
// order, and a duplicated key is an error (any first- or last-wins read of
// it would silently drop a value). write_escaped and write_number are the
// matching writers.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rispp::jsonmini {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

struct JsonParser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& message) {
    if (error.empty())
      error = message + " at offset " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string);
    }
    if (c == 't' || c == 'f') {
      const bool value = c == 't';
      const char* word = value ? "true" : "false";
      if (text.compare(pos, std::strlen(word), word) != 0) return fail("invalid literal");
      pos += std::strlen(word);
      out.kind = JsonValue::Kind::kBool;
      out.boolean = value;
      return true;
    }
    if (c == 'n') {
      if (text.compare(pos, 4, "null") != 0) return fail("invalid literal");
      pos += 4;
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    if (c != '-' && !is_digit(c)) return fail("invalid value");
    // The JSON grammar first: strtod alone would also take hex, inf, nan, a
    // leading '+' or a leading zero.
    const std::size_t start = pos;
    std::size_t end = pos;
    if (text[end] == '-') ++end;
    if (end < text.size() && text[end] == '0') {
      ++end;
    } else if (!scan_digits(end)) {
      return fail("invalid number");
    }
    if (end < text.size() && text[end] == '.') {
      ++end;
      if (!scan_digits(end)) return fail("invalid number");
    }
    if (end < text.size() && (text[end] == 'e' || text[end] == 'E')) {
      ++end;
      if (end < text.size() && (text[end] == '+' || text[end] == '-')) ++end;
      if (!scan_digits(end)) return fail("invalid number");
    }
    // strtod reading past the grammar's end means a hex number or a
    // leading zero ("0x10", "01").
    char* parsed = nullptr;
    const double number = std::strtod(text.c_str() + start, &parsed);
    if (parsed != text.c_str() + end) return fail("invalid number");
    if (!std::isfinite(number)) return fail("number out of range");
    pos = end;
    out.kind = JsonValue::Kind::kNumber;
    out.number = number;
    return true;
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  /// Advances `end` over one or more digits; false when there are none.
  bool scan_digits(std::size_t& end) const {
    const std::size_t first = end;
    while (end < text.size() && is_digit(text[end])) ++end;
    return end > first;
  }

  static int hex_value(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  bool parse_string(std::string& out) {
    if (text[pos] != '"') return fail("expected string");
    ++pos;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) break;
        const char esc = text[pos];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 >= text.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (std::size_t k = 1; k <= 4; ++k) {
              const int digit = hex_value(text[pos + k]);
              if (digit < 0) return fail("invalid \\u escape");
              code = code * 16 + static_cast<unsigned>(digit);
            }
            // Below U+0080 the code point is its own byte: this is what
            // write_escaped emits for control characters. Beyond that, keep
            // the raw escape (no UTF-8 encoding).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else {
              out += "\\u";
              out.append(text, pos + 1, 4);
            }
            pos += 4;
            break;
          }
          default: return fail("invalid escape");
        }
        ++pos;
        continue;
      }
      out += c;
      ++pos;
    }
    return fail("unterminated string");
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos;  // '['
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    for (;;) {
      JsonValue element;
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos >= text.size()) return fail("unterminated array");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == ']') {
        ++pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos;  // '{'
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (pos >= text.size() || text[pos] != '"') return fail("expected object key");
      if (!parse_string(key)) return false;
      if (out.find(key) != nullptr) return fail("duplicate key \"" + key + "\"");
      skip_ws();
      if (pos >= text.size() || text[pos] != ':') return fail("expected ':'");
      ++pos;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos >= text.size()) return fail("unterminated object");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == '}') {
        ++pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

/// Parses `text` as exactly one JSON document. Returns true on success;
/// otherwise `error` describes the failure (including trailing garbage).
inline bool parse_document(const std::string& text, JsonValue& out, std::string& error) {
  JsonParser parser{text, 0, {}};
  if (!parser.parse_value(out)) {
    error = parser.error;
    return false;
  }
  parser.skip_ws();
  if (parser.pos != text.size()) {
    error = "trailing garbage after the JSON value";
    return false;
  }
  return true;
}

/// Writes `v` as a JSON number: an integer below 2^53 in magnitude without
/// fraction or exponent, anything else at %.17g (which strtod reads back
/// exactly). JSON has no token for NaN or an infinity, so a non-finite `v`
/// throws std::invalid_argument naming `what` (the value's key) rather than
/// write a file that no reader accepts.
inline void write_number(std::ostream& out, double v, std::string_view what) {
  if (!std::isfinite(v))
    throw std::invalid_argument("\"" + std::string(what) + "\" is not a finite number (" +
                                (std::isnan(v) ? "nan" : v > 0 ? "inf" : "-inf") +
                                "); JSON cannot represent it");
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    out << static_cast<long long>(v);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

/// Writes `s` as the body of a JSON string (the caller writes the quotes):
/// '"' and '\\' get a backslash, control characters a \u00XX escape.
inline void write_escaped(std::ostream& out, std::string_view s) {
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out << '\\' << ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out << buf;
    } else {
      out << ch;
    }
  }
}

}  // namespace rispp::jsonmini
