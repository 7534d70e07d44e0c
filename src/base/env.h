// Strict environment-variable parsing for the runtime knobs (RISPP_THREADS,
// RISPP_FRAMES, ...). A typo'd value silently falling back to a default is
// worse than no knob at all — a 140-frame run launched as RISPP_FRAMES=abc
// wastes minutes before anyone notices — so invalid values fail loudly.
#pragma once

#include <optional>

namespace rispp {

/// Exit code used when an environment knob fails to parse.
inline constexpr int kEnvParseExitCode = 2;

/// Parses `text` as a base-10 integer in [min_value, max_value]. The whole
/// string must be consumed (leading/trailing junk, empty strings and
/// overflow all fail); returns nullopt on any failure.
std::optional<long> parse_int_strict(const char* text, long min_value, long max_value);

/// parse_int_strict for a knob the caller cannot run without: `text` when it
/// parses as an integer in [min_value, max_value]; otherwise prints
/// "<label>=<text> is not an integer in [min, max]" to stderr and exits with
/// kEnvParseExitCode. `label` names the environment variable or the
/// command-line flag the text came from.
long parse_int_or_die(const char* label, const char* text, long min_value, long max_value);

/// Reads the environment variable `name`: returns `fallback` when unset or
/// empty, and otherwise parse_int_or_die(name, value, min_value, max_value).
long parse_env_int(const char* name, long fallback, long min_value, long max_value);

}  // namespace rispp
