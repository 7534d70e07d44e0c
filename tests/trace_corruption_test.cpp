// Trace-cache corruption: a damaged trace file is either rejected or loads
// exactly the trace that was saved — never a crash, never a different
// trace — and each workload family's load-or-generate replaces a damaged
// or foreign file with a fresh generation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>

#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "isa/si.h"
#include "jpeg/jpeg_si_library.h"
#include "jpeg/jpeg_workload.h"
#include "sim/trace.h"

namespace rispp {
namespace {

namespace fs = std::filesystem;

h264::WorkloadConfig small_h264() {
  h264::WorkloadConfig config;
  config.frames = 2;
  config.video.width = 96;
  config.video.height = 64;
  return config;
}

jpeg::JpegWorkloadConfig small_jpeg() {
  jpeg::JpegWorkloadConfig config;
  config.images = 1;
  config.width = 64;
  config.height = 48;
  return config;
}

std::string saved(const WorkloadTrace& trace) {
  std::stringstream ss;
  trace.save(ss);
  return ss.str();
}

/// load() of `bytes`; nullopt when rejected. Only the documented rejection
/// (std::logic_error) is caught: anything else fails the test.
std::optional<WorkloadTrace> load_bytes(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    return WorkloadTrace::load(ss);
  } catch (const std::logic_error&) {
    return std::nullopt;
  }
}

/// Truncates the saved `original` at every byte offset and flips every
/// single bit, one corruption per load.
void expect_every_corruption_safe(const WorkloadTrace& original) {
  const std::string good = saved(original);
  ASSERT_TRUE(load_bytes(good) == original);
  for (std::size_t n = 0; n < good.size(); ++n) {
    const auto loaded = load_bytes(good.substr(0, n));
    EXPECT_TRUE(!loaded || *loaded == original) << "truncated to " << n << " bytes";
  }
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string bad = good;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
    const auto loaded = load_bytes(bad);
    EXPECT_TRUE(!loaded || *loaded == original) << "bit " << bit << " flipped";
  }
}

TEST(TraceCorruption, H264TruncationsAndBitFlips) {
  expect_every_corruption_safe(
      h264::generate_h264_workload(h264sis::build_h264_si_set(), small_h264()).trace);
}

TEST(TraceCorruption, JpegTruncationsAndBitFlips) {
  expect_every_corruption_safe(
      jpeg::generate_jpeg_workload(jpegsis::build_jpeg_si_set(), small_jpeg()).trace);
}

/// Rewrites a v3 file's trailing digest over its edited payload — the
/// format's definition: fingerprint_mix over the payload's 8-byte words
/// (the last one zero-padded), then the payload length.
void redigest(std::string& file) {
  const std::size_t payload = file.size() - sizeof(std::uint64_t);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= payload; i += sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, file.data() + i, sizeof word);
    hash = fingerprint_mix(hash, word);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, file.data() + i, payload - i);
  hash = fingerprint_mix(fingerprint_mix(hash, tail), payload);
  std::memcpy(file.data() + payload, &hash, sizeof hash);
}

TEST(TraceCorruption, OversizedLengthsAreRejectedBeforeAllocating) {
  // A length field larger than the bytes left must throw, under a valid
  // digest too: allocating for it first would abort under ASan (or exhaust
  // memory) instead of letting the caller regenerate.
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"", {}, 0}};
  trace.instances.emplace_back(0, std::vector<SiId>{}, 0);
  const std::string good = saved(trace);
  ASSERT_TRUE(load_bytes(good) == trace);
  // Layout: magic@0, hot-spot count@4, name length@8, SI count@12,
  // overhead@16, instance count@24, hot spot@32, entry@34, run count@42.
  const auto with_length = [&](std::size_t offset, std::uint64_t value, std::size_t width) {
    std::string bad = good;
    std::memcpy(bad.data() + offset, &value, width);
    redigest(bad);
    return bad;
  };
  for (const auto& [offset, width] : {std::pair<std::size_t, std::size_t>{4, 4}, {8, 4},
                                      {12, 4}, {24, 8}, {42, 8}}) {
    const std::uint64_t huge = width == 4 ? 0xFFFFFFFFull : 1ull << 60;
    EXPECT_FALSE(load_bytes(with_length(offset, huge, width)).has_value())
        << "length at offset " << offset;
  }
}

/// Points RISPP_TRACE_DIR at a private, initially empty directory for the
/// test's lifetime.
class TraceCacheDir : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("rispp_corruption_" + std::to_string(::getpid()) + "_" + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    if (const char* old = std::getenv("RISPP_TRACE_DIR")) old_ = old;
    ::setenv("RISPP_TRACE_DIR", dir_.c_str(), 1);
  }
  void TearDown() override {
    if (old_)
      ::setenv("RISPP_TRACE_DIR", old_->c_str(), 1);
    else
      ::unsetenv("RISPP_TRACE_DIR");
    fs::remove_all(dir_);
  }

  static void write_file(const fs::path& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary).write(bytes.data(),
                                                static_cast<std::streamsize>(bytes.size()));
  }

  using LoadOrGenerate = std::function<WorkloadTrace(bool* from_cache)>;

  /// Drives a family's load-or-generate through a cold miss, a warm hit,
  /// corrupted files and valid files naming an SI the set lacks: every
  /// damaged or foreign file yields `fresh` and is rewritten with it.
  static void expect_regenerates(const LoadOrGenerate& load_or_generate, const fs::path& path,
                                 const WorkloadTrace& fresh, std::size_t si_count) {
    bool from_cache = true;
    EXPECT_TRUE(load_or_generate(&from_cache) == fresh);
    EXPECT_FALSE(from_cache) << "cold cache";
    EXPECT_TRUE(load_or_generate(&from_cache) == fresh);
    EXPECT_TRUE(from_cache) << "warm cache";

    const auto expect_replaced = [&](const std::string& bytes, const std::string& what) {
      write_file(path, bytes);
      bool hit = true;
      EXPECT_TRUE(load_or_generate(&hit) == fresh) << what;
      EXPECT_FALSE(hit) << what;
      const auto rewritten = try_load_trace_file(path);
      EXPECT_TRUE(rewritten && *rewritten == fresh) << what << ": file not rewritten";
    };
    const std::string good = saved(fresh);
    expect_replaced("", "empty file");
    expect_replaced("garbage", "garbage");
    for (const std::size_t n : {std::size_t{4}, std::size_t{11}, good.size() / 2, good.size() - 1})
      expect_replaced(good.substr(0, n), "truncated to " + std::to_string(n));
    for (const std::size_t byte : {std::size_t{0}, std::size_t{5}, good.size() / 2,
                                   good.size() - 9, good.size() - 1}) {
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ 0x04);
      expect_replaced(bad, "bit flipped in byte " + std::to_string(byte));
    }

    // Well-formed files with valid digests, naming SI id == si_count.
    WorkloadTrace foreign = fresh;
    ASSERT_FALSE(foreign.instances.empty());
    HotSpotInstance& inst = foreign.instances.back();
    ASSERT_FALSE(inst.runs.empty());
    inst.runs.back().si = static_cast<SiId>(si_count);
    expect_replaced(saved(foreign), "run SI id == si_count");
    foreign = fresh;
    foreign.hot_spots.front().sis.push_back(static_cast<SiId>(si_count));
    expect_replaced(saved(foreign), "hot-spot SI id == si_count");
  }

 private:
  fs::path dir_;
  std::optional<std::string> old_;
};

TEST_F(TraceCacheDir, H264LoadOrGenerateRegenerates) {
  const SpecialInstructionSet set = h264sis::build_h264_si_set();
  const h264::WorkloadConfig config = small_h264();
  expect_regenerates(
      [&](bool* from_cache) { return h264::load_or_generate_h264_trace(set, config, from_cache); },
      h264::trace_cache_path(set, config), h264::generate_h264_workload(set, config).trace,
      set.si_count());
}

TEST_F(TraceCacheDir, JpegLoadOrGenerateRegenerates) {
  const SpecialInstructionSet set = jpegsis::build_jpeg_si_set();
  const jpeg::JpegWorkloadConfig config = small_jpeg();
  expect_regenerates(
      [&](bool* from_cache) { return jpeg::load_or_generate_jpeg_trace(set, config, from_cache); },
      jpeg::trace_cache_path(set, config), jpeg::generate_jpeg_workload(set, config).trace,
      set.si_count());
}

}  // namespace
}  // namespace rispp
