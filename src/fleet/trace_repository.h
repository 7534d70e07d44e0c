// Process-wide workload-trace cache for fleet simulation.
//
// Generating a workload trace (encoding H.264 frames or compressing JPEG
// images) costs orders of magnitude more than replaying it, and a fleet's
// sessions cluster on a handful of distinct contents. The repository
// memoizes (content kind, length, dimensions) → {SI set, trace, forecast
// seeds} once per process; every session of a cohort replays the same const
// WorkloadTrace, which is safe because replay never mutates the trace (the
// same contract the parallel sweep harness relies on). Entries are never
// evicted — a fleet run resolves its cohorts up front and the distinct
// content count is tiny compared to the session count.
//
// A memory miss consults the on-disk trace cache before generating: the SI
// set and forecast seeds are rebuilt in-process (cheap), and the recorded
// trace itself comes from the content family's load_or_generate
// (h264::load_or_generate_h264_trace, jpeg::load_or_generate_jpeg_trace) —
// the same function the bench harness uses, so one warm cache serves both.
// Generation still writes the file (atomic tmp + rename), so the second
// process to want a content gets it for the cost of a load.
//
// Metrics: fleet.trace_cache.{hits,misses,disk_hits} — the in-memory hit
// rate climbs with fleet size, which is the point; disk_hits track
// cross-process reuse.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "fleet/session.h"
#include "isa/si.h"
#include "sim/trace.h"

namespace rispp::fleet {

/// Everything a session needs to replay one content: the SI set the trace
/// was recorded against, the trace itself, and the design-time
/// forecast seeds per (hot spot, SI).
struct TraceEntry {
  SpecialInstructionSet set;
  WorkloadTrace trace;
  std::vector<std::vector<std::uint64_t>> seeds;

  explicit TraceEntry(SpecialInstructionSet s) : set(std::move(s)) {}
};

class TraceRepository {
 public:
  /// Returns the memoized entry for the spec's content, generating it on
  /// first use (generation runs under the repository lock — resolve cohorts
  /// before fanning sessions out, as SessionBatch's constructor does).
  /// The reference stays valid for the repository's lifetime.
  const TraceEntry& get(const SessionSpec& spec);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// Memory misses that were satisfied from the on-disk trace cache.
  std::uint64_t disk_hits() const;
  std::size_t size() const;

  /// The process-wide instance (never destroyed: entries outlive sessions).
  static TraceRepository& global();

 private:
  struct Key {
    int content;
    int frames;
    int width;
    int height;
    auto operator<=>(const Key&) const = default;
  };

  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<TraceEntry>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t disk_hits_ = 0;
};

}  // namespace rispp::fleet
