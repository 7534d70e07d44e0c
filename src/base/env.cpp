#include "base/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace rispp {

std::optional<long> parse_int_strict(const char* text, long min_value, long max_value) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return std::nullopt;
  if (value < min_value || value > max_value) return std::nullopt;
  return value;
}

long parse_int_or_die(const char* label, const char* text, long min_value, long max_value) {
  if (const auto value = parse_int_strict(text, min_value, max_value)) return *value;
  std::fprintf(stderr, "%s=%s is not an integer in [%ld, %ld]\n", label, text, min_value,
               max_value);
  std::exit(kEnvParseExitCode);
}

long parse_env_int(const char* name, long fallback, long min_value, long max_value) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  return parse_int_or_die(name, text, min_value, max_value);
}

}  // namespace rispp
