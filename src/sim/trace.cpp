#include "sim/trace.h"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
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

HotSpotInstance::HotSpotInstance(HotSpotId hs, const std::vector<SiId>& executions,
                                 Cycles entry)
    : hot_spot(hs), entry_overhead(entry) {
  for (const SiId si : executions) append(si);
}

void HotSpotInstance::append(SiId si, std::uint32_t count) {
  if (count == 0) return;
  if (!runs.empty() && runs.back().si == si) {
    RISPP_CHECK_MSG(runs.back().count <= std::numeric_limits<std::uint32_t>::max() - count,
                    "run of SI " << si << " overflows its 32-bit count");
    runs.back().count += count;
  } else {
    runs.push_back(SiRun{si, count});
  }
  execution_count += count;
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
  for (const auto& inst : instances)
    for (const SiRun& run : inst.runs)
      if (run.si == si) n += run.count;
  return n;
}

bool WorkloadTrace::si_ids_below(std::size_t si_count) const {
  for (const auto& hs : hot_spots)
    for (const SiId si : hs.sis)
      if (si >= si_count) return false;
  for (const auto& inst : instances)
    for (const SiRun& run : inst.runs)
      if (run.si >= si_count) return false;
  return true;
}

void WorkloadTrace::save(std::ostream& os) const {
  std::string out;
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
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

WorkloadTrace WorkloadTrace::load(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string bytes = std::move(buffer).str();
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
    inst.runs.resize(in.length<std::uint64_t>(kRunBytes));
    for (std::size_t r = 0; r < inst.runs.size(); ++r) {
      SiRun& run = inst.runs[r];
      run.si = in.get<SiId>();
      run.count = in.get<std::uint32_t>();
      RISPP_CHECK_MSG(run.count > 0, "trace run with a zero count");
      RISPP_CHECK_MSG(r == 0 || inst.runs[r - 1].si != run.si,
                      "adjacent trace runs share SI " << run.si);
      inst.execution_count += run.count;
    }
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
