#include "sim/trace.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>
#include <system_error>

#include "base/check.h"
#include "isa/si.h"

namespace rispp {
namespace {

// v1 ("RTRC") stored flat executions, v2 added runs next to them, v3
// stores the runs alone plus a digest. Each version changed the magic
// itself: a version field after an old magic could collide with that
// format's hot-spot count.
constexpr std::uint32_t kMagicV1 = 0x52545243;  // "RTRC"
constexpr std::uint32_t kMagicV2 = 0x32545243;
constexpr std::uint32_t kMagic = 0x33545243;

// Smallest serialized size of each length-prefixed record.
constexpr std::size_t kHotSpotBytes = 2 * sizeof(std::uint32_t) + sizeof(Cycles);
constexpr std::size_t kInstanceBytes = sizeof(HotSpotId) + sizeof(Cycles) + sizeof(std::uint64_t);
constexpr std::size_t kRunBytes = sizeof(SiId) + sizeof(std::uint32_t);

template <typename T>
void put(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// fingerprint_mix over the payload's 8-byte words (the last one
/// zero-padded), then its length. FNV steps are bijective in the running
/// hash, so any single changed byte changes the digest.
std::uint64_t payload_digest(std::string_view payload) {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV offset basis
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= payload.size(); i += sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, payload.data() + i, sizeof word);
    hash = fingerprint_mix(hash, word);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, payload.data() + i, payload.size() - i);
  return fingerprint_mix(fingerprint_mix(hash, tail), payload.size());
}

/// Bounds-checked cursor over a loaded payload.
struct Reader {
  std::string_view bytes;

  template <typename T>
  T get() {
    RISPP_CHECK_MSG(bytes.size() >= sizeof(T), "truncated trace");
    T v;
    std::memcpy(&v, bytes.data(), sizeof v);
    bytes.remove_prefix(sizeof v);
    return v;
  }

  /// A `Length`-typed count of records of at least `record_bytes` each,
  /// checked against the bytes left before anything is allocated for it.
  template <typename Length>
  std::size_t length(std::size_t record_bytes) {
    const std::uint64_t n = get<Length>();
    RISPP_CHECK_MSG(n <= bytes.size() / record_bytes,
                    "trace length " << n << " exceeds the bytes left");
    return n;
  }
};

}  // namespace

std::uint64_t SiSummary::executions_of(SiId si) const {
  const auto it = std::find(sis_.begin(), sis_.end(), si);
  return it == sis_.end() ? 0 : totals_[it - sis_.begin()];
}

void SiSummary::add(SiId si, std::uint32_t count, bool new_run) {
  if (new_run) {
    if (runs_ > 0 && runs_ % kBlockRuns == 0) {
      // The runs before this one are closed: checkpoint their totals.
      checkpoint_counts_.insert(checkpoint_counts_.end(), totals_.begin(), totals_.end());
      RISPP_CHECK_MSG(checkpoint_counts_.size() <= std::numeric_limits<std::uint32_t>::max(),
                      "instance too long for its summary");
      checkpoint_ends_.push_back(static_cast<std::uint32_t>(checkpoint_counts_.size()));
    }
    ++runs_;
    open_ = static_cast<std::size_t>(std::find(sis_.begin(), sis_.end(), si) - sis_.begin());
    if (open_ == sis_.size()) {
      sis_.push_back(si);
      totals_.push_back(0);
    }
  }
  totals_[open_] += count;
}

void SiSummary::shrink_to_fit() {
  sis_.shrink_to_fit();
  totals_.shrink_to_fit();
  checkpoint_counts_.shrink_to_fit();
  checkpoint_ends_.shrink_to_fit();
}

HotSpotInstance::HotSpotInstance(HotSpotId hs, const std::vector<SiId>& executions,
                                 Cycles entry)
    : hot_spot(hs), entry_overhead(entry) {
  constexpr std::size_t kMaxCount = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < executions.size();) {
    std::size_t end = i + 1;
    while (end < executions.size() && end - i < kMaxCount && executions[end] == executions[i])
      ++end;
    append(executions[i], static_cast<std::uint32_t>(end - i));
    i = end;
  }
  shrink_to_fit();
}

void HotSpotInstance::append(SiId si, std::uint32_t count) {
  if (count == 0) return;
  const bool merge = !runs.empty() && runs.back().si == si;
  if (merge) {
    RISPP_CHECK_MSG(runs.back().count <= std::numeric_limits<std::uint32_t>::max() - count,
                    "run of SI " << si << " overflows its 32-bit count");
    runs.back().count += count;
  } else {
    runs.push_back(SiRun{si, count});
  }
  summary_.add(si, count, !merge);
  execution_count += count;
}

void HotSpotInstance::shrink_to_fit() {
  runs.shrink_to_fit();
  summary_.shrink_to_fit();
}

std::size_t WorkloadTrace::total_si_executions() const {
  std::size_t n = 0;
  for (const auto& inst : instances) n += inst.execution_count;
  return n;
}

Cycles WorkloadTrace::overhead_cycles() const {
  Cycles total = 0;
  for (const auto& inst : instances)
    total += inst.entry_overhead +
             hot_spots[inst.hot_spot].per_execution_overhead * inst.execution_count;
  return total;
}

std::uint64_t WorkloadTrace::executions_of(SiId si) const {
  std::uint64_t n = 0;
  for (const auto& inst : instances) n += inst.summary().executions_of(si);
  return n;
}

bool WorkloadTrace::si_ids_below(std::size_t si_count) const {
  for (const auto& hs : hot_spots)
    for (const SiId si : hs.sis)
      if (si >= si_count) return false;
  for (const auto& inst : instances) {
    const SiSummary& summary = inst.summary();
    for (std::size_t slot = 0; slot < summary.size(); ++slot)
      if (summary.si(slot) >= si_count) return false;
  }
  return true;
}

void WorkloadTrace::save(std::ostream& os) const {
  // Magic, the two record counts and the digest, then the records.
  std::size_t size = sizeof kMagic + sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);
  for (const auto& hs : hot_spots)
    size += kHotSpotBytes + hs.name.size() + hs.sis.size() * sizeof(SiId);
  for (const auto& inst : instances) size += kInstanceBytes + inst.runs.size() * kRunBytes;
  std::string out;
  out.reserve(size);
  put(out, kMagic);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(hot_spots.size()));
  for (const auto& hs : hot_spots) {
    put<std::uint32_t>(out, static_cast<std::uint32_t>(hs.name.size()));
    out += hs.name;
    put<std::uint32_t>(out, static_cast<std::uint32_t>(hs.sis.size()));
    for (const SiId si : hs.sis) put(out, si);
    put(out, hs.per_execution_overhead);
  }
  put<std::uint64_t>(out, instances.size());
  for (const auto& inst : instances) {
    put(out, inst.hot_spot);
    put(out, inst.entry_overhead);
    put<std::uint64_t>(out, inst.runs.size());
    for (const SiRun& run : inst.runs) {
      put(out, run.si);
      put(out, run.count);
    }
  }
  put(out, payload_digest(out));
  RISPP_CHECK(out.size() == size);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

WorkloadTrace WorkloadTrace::load(std::istream& is) {
  // Read from here to the end into a string of exactly that size.
  const std::istream::pos_type begin = is.tellg();
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  RISPP_CHECK_MSG(begin != std::istream::pos_type(-1) && end != std::istream::pos_type(-1) &&
                      end >= begin,
                  "trace stream size cannot be read");
  is.seekg(begin);
  std::string bytes(static_cast<std::size_t>(end - begin), '\0');
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  RISPP_CHECK_MSG(is.gcount() == static_cast<std::streamsize>(bytes.size()),
                  "trace stream ended after " << is.gcount() << " of " << bytes.size() << " bytes");
  std::uint32_t magic = 0;
  RISPP_CHECK_MSG(bytes.size() >= sizeof magic, "not a RISPP trace");
  std::memcpy(&magic, bytes.data(), sizeof magic);
  RISPP_CHECK_MSG(magic != kMagicV1 && magic != kMagicV2,
                  "trace format v" << (magic == kMagicV1 ? 1 : 2)
                                   << " (flat executions) — delete the file and regenerate");
  RISPP_CHECK_MSG(magic == kMagic, "not a RISPP trace");
  std::uint64_t digest = 0;
  RISPP_CHECK_MSG(bytes.size() >= sizeof magic + sizeof digest, "truncated trace");
  const std::string_view payload(bytes.data(), bytes.size() - sizeof digest);
  std::memcpy(&digest, bytes.data() + payload.size(), sizeof digest);
  RISPP_CHECK_MSG(digest == payload_digest(payload), "trace digest mismatch — corrupt file");

  Reader in{payload.substr(sizeof magic)};
  WorkloadTrace trace;
  trace.hot_spots.resize(in.length<std::uint32_t>(kHotSpotBytes));
  for (auto& hs : trace.hot_spots) {
    const std::size_t name_size = in.length<std::uint32_t>(1);
    hs.name = in.bytes.substr(0, name_size);
    in.bytes.remove_prefix(name_size);
    hs.sis.resize(in.length<std::uint32_t>(sizeof(SiId)));
    for (auto& si : hs.sis) si = in.get<SiId>();
    hs.per_execution_overhead = in.get<Cycles>();
  }
  trace.instances.resize(in.length<std::uint64_t>(kInstanceBytes));
  for (auto& inst : trace.instances) {
    inst.hot_spot = in.get<HotSpotId>();
    RISPP_CHECK_MSG(inst.hot_spot < trace.hot_spots.size(),
                    "hot-spot index " << inst.hot_spot << " out of range");
    inst.entry_overhead = in.get<Cycles>();
    const std::size_t run_count = in.length<std::uint64_t>(kRunBytes);
    inst.runs.reserve(run_count);
    for (std::size_t r = 0; r < run_count; ++r) {
      const auto si = in.get<SiId>();
      const auto count = in.get<std::uint32_t>();
      // append() would drop a zero count and merge a repeated SI.
      RISPP_CHECK_MSG(count > 0, "trace run with a zero count");
      RISPP_CHECK_MSG(r == 0 || inst.runs.back().si != si, "adjacent trace runs share SI " << si);
      inst.append(si, count);
    }
    inst.shrink_to_fit();
  }
  RISPP_CHECK_MSG(in.bytes.empty(), "trailing bytes after the last trace instance");
  return trace;
}

std::filesystem::path trace_cache_dir() {
  if (const char* env = std::getenv("RISPP_TRACE_DIR"); env != nullptr && *env != '\0')
    return env;
  return std::filesystem::temp_directory_path();
}

void save_trace_file(const WorkloadTrace& trace, const std::filesystem::path& path) {
  // The atomic counter keeps two writers constructed concurrently in one
  // process (fleet devices, in-process bench drivers) from clobbering each
  // other's temp file; distinct processes are separated by the pid.
  static std::atomic<unsigned> counter{0};
  const std::filesystem::path tmp = path.string() + "." + std::to_string(::getpid()) +
                                    "." + std::to_string(counter.fetch_add(1)) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out.good()) return;
    trace.save(out);
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

std::optional<WorkloadTrace> try_load_trace_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  try {
    return WorkloadTrace::load(in);
  } catch (const std::exception&) {
    return std::nullopt;  // corrupt or stale-format cache: regenerate
  }
}

}  // namespace rispp
