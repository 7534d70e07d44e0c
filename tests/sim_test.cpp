// Tests for traces, the cycle-level executor, the port-quiet replay walk and
// bucketed statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include "base/metrics.h"
#include "base/prng.h"
#include "baselines/software_only.h"
#include "isa/h264_si_library.h"
#include "sim/executor.h"
#include "sim/port_window_backend.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace rispp {
namespace {

WorkloadTrace tiny_trace() {
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"A", {0, 1}, 5}, HotSpotInfo{"B", {1}, 3}};
  trace.instances = {
      HotSpotInstance{0, {0, 1, 0}, 100},
      HotSpotInstance{1, {1, 1}, 50},
  };
  return trace;
}

/// Backend with fixed latencies for executor arithmetic tests.
class FixedBackend final : public ExecutionBackend {
 public:
  explicit FixedBackend(std::vector<Cycles> latencies) : latencies_(std::move(latencies)) {}
  std::string_view name() const override { return "Fixed"; }
  void on_hot_spot_entry(const WorkloadTrace&, std::size_t, Cycles) override { ++entries_; }
  void on_hot_spot_exit(Cycles) override { ++exits_; }
  Cycles si_execution_latency(SiId si, Cycles) override { return latencies_[si]; }
  int entries_ = 0, exits_ = 0;

 private:
  std::vector<Cycles> latencies_;
};

TEST(Executor, AccountsOverheadsAndLatencies) {
  const WorkloadTrace trace = tiny_trace();
  FixedBackend backend({10, 20});
  SimStats stats(2);
  const SimResult result = run_trace(trace, backend, &stats);
  // Instance 0: 100 entry + (10+5)+(20+5)+(10+5) = 155.
  // Instance 1: 50 entry + (20+3)+(20+3) = 96.
  EXPECT_EQ(result.total_cycles, 155u + 96u);
  EXPECT_EQ(result.si_executions, 5u);
  EXPECT_EQ(backend.entries_, 2);
  EXPECT_EQ(backend.exits_, 2);
  EXPECT_EQ(stats.executions(0), 2u);
  EXPECT_EQ(stats.executions(1), 3u);
  ASSERT_EQ(result.hot_spot_cycles.size(), 2u);
  EXPECT_EQ(result.hot_spot_cycles[0], 155u);
  EXPECT_EQ(result.hot_spot_cycles[1], 96u);
}

TEST(Stats, BucketsSplitAt100KCycles) {
  SimStats stats(1);
  stats.record_execution(0, 0, 10);
  stats.record_execution(0, 99'999, 10);
  stats.record_execution(0, 100'000, 10);
  stats.record_execution(0, 250'000, 10);
  EXPECT_EQ(stats.bucket_executions(0, 0), 2u);
  EXPECT_EQ(stats.bucket_executions(0, 1), 1u);
  EXPECT_EQ(stats.bucket_executions(0, 2), 1u);
  EXPECT_EQ(stats.bucket_executions(0, 3), 0u);
  EXPECT_EQ(stats.bucket_count(), 3u);
  EXPECT_EQ(stats.total_executions(), 4u);
}

TEST(Stats, LatencyTimelineRecordsChangePoints) {
  SimStats stats(1);
  stats.record_execution(0, 10, 500);
  stats.record_execution(0, 20, 500);  // same latency -> no new point
  stats.record_execution(0, 30, 100);
  const auto& tl = stats.latency_timeline(0);
  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl[0].at, 10u);
  EXPECT_EQ(tl[0].latency, 500u);
  EXPECT_EQ(tl[1].at, 30u);
  EXPECT_EQ(tl[1].latency, 100u);
}

TEST(Trace, TotalsAndPerSiCounts) {
  const WorkloadTrace trace = tiny_trace();
  EXPECT_EQ(trace.total_si_executions(), 5u);
  EXPECT_EQ(trace.executions_of(0), 2u);
  EXPECT_EQ(trace.executions_of(1), 3u);
  EXPECT_EQ(trace.executions_of(7), 0u);
}

TEST(Trace, AppendMergesRuns) {
  HotSpotInstance inst;
  inst.append(3);
  inst.append(3, 4);   // same SI: merged into the open run
  inst.append(5, 0);   // zero count: no-op, no empty run
  inst.append(5, 2);
  inst.append(3);      // a new run, not merged across the 5s
  const std::vector<SiRun> expected{{3, 5}, {5, 2}, {3, 1}};
  EXPECT_EQ(inst.runs, expected);
  EXPECT_EQ(inst.execution_count, 8u);
  // The flat-sequence constructor encodes through append().
  const HotSpotInstance encoded{0, {3, 3, 3, 3, 3, 5, 5, 3}, 0};
  EXPECT_EQ(encoded.runs, expected);
  EXPECT_EQ(encoded.execution_count, 8u);
}

TEST(Trace, BinaryRoundTrip) {
  const WorkloadTrace trace = tiny_trace();
  std::stringstream ss;
  trace.save(ss);
  const WorkloadTrace loaded = WorkloadTrace::load(ss);
  ASSERT_EQ(loaded.hot_spots.size(), trace.hot_spots.size());
  EXPECT_EQ(loaded.hot_spots[0].name, "A");
  EXPECT_EQ(loaded.hot_spots[0].sis, trace.hot_spots[0].sis);
  EXPECT_EQ(loaded.hot_spots[1].per_execution_overhead, 3u);
  ASSERT_EQ(loaded.instances.size(), trace.instances.size());
  EXPECT_EQ(loaded.instances[0].runs, trace.instances[0].runs);
  EXPECT_EQ(loaded.instances[0].execution_count, 3u);
  EXPECT_EQ(loaded.instances[1].entry_overhead, 50u);
}

TEST(Trace, RejectsGarbage) {
  std::stringstream ss;
  ss << "this is not a trace";
  EXPECT_THROW(WorkloadTrace::load(ss), std::logic_error);
}

/// Reads its bytes but cannot seek, so a stream over it has no size.
struct UnseekableBuffer : std::streambuf {
  explicit UnseekableBuffer(std::string& bytes) {
    setg(bytes.data(), bytes.data(), bytes.data() + bytes.size());
  }
};

TEST(Trace, LoadRefusesAStreamWhoseSizeCannotBeRead) {
  std::stringstream ss;
  tiny_trace().save(ss);
  std::string bytes = ss.str();
  UnseekableBuffer buffer(bytes);
  std::istream in(&buffer);
  try {
    WorkloadTrace::load(in);
    FAIL() << "an unseekable stream loaded";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("trace stream size cannot be read"), std::string::npos)
        << e.what();
  }
}

TEST(Trace, LoadReadsFromTheStreamPosition) {
  const WorkloadTrace trace = tiny_trace();
  std::stringstream ss;
  ss << "prefix";
  trace.save(ss);
  ss.seekg(6);
  EXPECT_EQ(WorkloadTrace::load(ss), trace);
}

TEST(Trace, RoundTripCarriesRuns) {
  const WorkloadTrace trace = tiny_trace();
  std::stringstream ss;
  trace.save(ss);
  const WorkloadTrace loaded = WorkloadTrace::load(ss);
  ASSERT_EQ(loaded.instances.size(), trace.instances.size());
  for (std::size_t i = 0; i < trace.instances.size(); ++i) {
    EXPECT_EQ(loaded.instances[i].runs, trace.instances[i].runs);
    EXPECT_EQ(loaded.instances[i].execution_count, trace.instances[i].execution_count);
  }
  EXPECT_EQ(loaded.total_si_executions(), trace.total_si_executions());
  EXPECT_EQ(loaded.executions_of(0), trace.executions_of(0));
  EXPECT_EQ(loaded.executions_of(1), trace.executions_of(1));
}

/// Expects load() of `bytes` to throw a logic_error whose message contains
/// `needle`.
void expect_rejected(const std::string& bytes, const std::string& needle) {
  std::stringstream ss(bytes);
  try {
    WorkloadTrace::load(ss);
    FAIL() << "trace was not rejected (expected \"" << needle << "\")";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(Trace, RejectsV1FormatWithRegenerateMessage) {
  // A v1 file ("RTRC" magic, no serialized runs) must be rejected outright,
  // not misparsed: the magic changed with the format.
  std::stringstream ss;
  const std::uint32_t v1_magic = 0x52545243;
  ss.write(reinterpret_cast<const char*>(&v1_magic), sizeof v1_magic);
  const std::uint32_t hot_spots = 1;  // plausible v1 payload after the magic
  ss.write(reinterpret_cast<const char*>(&hot_spots), sizeof hot_spots);
  expect_rejected(ss.str(), "regenerate");
}

TEST(Trace, RejectsV2FormatWithRegenerateMessage) {
  // v2 stored flat executions next to the runs; its magic is rejected the
  // same way, whatever follows it.
  std::string v2 = "\x43\x52\x54\x32";  // 0x32545243 little-endian
  expect_rejected(v2, "regenerate");
  v2.append(64, '\0');
  expect_rejected(v2, "regenerate");
}

TEST(Trace, RejectsDigestMismatch) {
  std::stringstream ss;
  tiny_trace().save(ss);
  const std::string good = ss.str();
  for (const std::size_t at : {std::size_t{4}, good.size() / 2, good.size() - 1}) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    expect_rejected(bad, "digest");
  }
}

TEST(Trace, RejectsInconsistentRuns) {
  // save() writes whatever runs an instance holds under a valid digest;
  // load() still rejects any run form that is not maximal, and hot-spot
  // indices outside the header.
  const auto saved = [](const WorkloadTrace& trace) {
    std::stringstream ss;
    trace.save(ss);
    return ss.str();
  };
  {
    WorkloadTrace trace = tiny_trace();
    trace.instances[0].runs[1].count = 0;
    expect_rejected(saved(trace), "zero count");
  }
  {
    WorkloadTrace trace = tiny_trace();
    trace.instances[0].runs[1].si = 0;  // {0},{0},{0}: adjacent runs share an SI
    expect_rejected(saved(trace), "adjacent");
  }
  {
    WorkloadTrace trace = tiny_trace();
    trace.instances[1].hot_spot = 2;  // only hot spots 0 and 1 exist
    expect_rejected(saved(trace), "out of range");
  }
}

TEST(Trace, SiIdsBelowChecksHotSpotsAndRuns) {
  WorkloadTrace trace = tiny_trace();  // SIs 0 and 1
  EXPECT_TRUE(trace.si_ids_below(2));
  EXPECT_FALSE(trace.si_ids_below(1));
  trace.hot_spots[1].sis.push_back(2);
  EXPECT_FALSE(trace.si_ids_below(2));
  trace = tiny_trace();
  trace.instances[1].append(2);
  EXPECT_FALSE(trace.si_ids_below(2));
}

/// Recounts `inst`'s summary from its runs alone: slots in first-execution
/// order, per-SI totals, and every checkpoint as the per-slot executions of
/// the runs before it.
void expect_summary_matches_runs(const HotSpotInstance& inst) {
  const SiSummary& summary = inst.summary();
  const std::vector<SiRun>& runs = inst.runs;
  std::vector<SiId> sis;
  for (const SiRun& run : runs)
    if (std::find(sis.begin(), sis.end(), run.si) == sis.end()) sis.push_back(run.si);
  ASSERT_EQ(summary.size(), sis.size());
  for (std::size_t a = 0; a < sis.size(); ++a) {
    ASSERT_EQ(summary.si(a), sis[a]) << "slot " << a;
    std::uint64_t total = 0;
    for (const SiRun& run : runs)
      if (run.si == sis[a]) total += run.count;
    EXPECT_EQ(summary.total(a), total) << "slot " << a;
    EXPECT_EQ(summary.executions_of(sis[a]), total) << "slot " << a;
  }
  // One checkpoint per kBlockRuns runs, the last one at the instance end.
  const std::size_t block = SiSummary::kBlockRuns;
  ASSERT_EQ(summary.checkpoints(), runs.empty() ? 1 : (runs.size() + block - 1) / block);
  for (std::size_t c = 0; c < summary.checkpoints(); ++c) {
    const std::size_t end = std::min((c + 1) * block, runs.size());
    ASSERT_EQ(summary.checkpoint_runs(c), end) << "checkpoint " << c;
    std::vector<std::uint64_t> counts;
    for (std::size_t r = 0; r < end; ++r) {
      const auto slot = static_cast<std::size_t>(
          std::find(sis.begin(), sis.end(), runs[r].si) - sis.begin());
      if (slot == counts.size()) counts.push_back(0);
      counts[slot] += runs[r].count;
    }
    const std::span<const std::uint64_t> stored = summary.checkpoint(c);
    EXPECT_EQ(std::vector<std::uint64_t>(stored.begin(), stored.end()), counts)
        << "checkpoint " << c;
  }
}

TEST(Trace, SummaryMatchesBruteForceRecount) {
  Xoshiro256 rng(7);
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"A", {}, 1}};
  for (int i = 0; i < 40; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    // The flat-sequence constructor: stretches of equal SIs become runs.
    std::vector<SiId> executions;
    for (std::int64_t n = rng.range(0, 400); n > 0; --n)
      executions.push_back(static_cast<SiId>(rng.range(0, 1) == 0 && !executions.empty()
                                                 ? executions.back()
                                                 : rng.range(0, 5)));
    HotSpotInstance inst{0, executions, 10};
    ASSERT_EQ(inst.execution_count, executions.size());
    expect_summary_matches_runs(inst);
    // Merges into the open run and new runs, checked after every append.
    for (std::int64_t n = rng.range(1, 30); n > 0; --n) {
      const SiId si = !inst.runs.empty() && rng.range(0, 2) == 0
                          ? inst.runs.back().si
                          : static_cast<SiId>(rng.range(0, 7));
      inst.append(si, static_cast<std::uint32_t>(rng.range(0, 50)));
      expect_summary_matches_runs(inst);
    }
    trace.instances.push_back(std::move(inst));
  }
  EXPECT_EQ(trace.instances[0].summary().executions_of(99), 0u);
  // load() encodes through append() too.
  std::stringstream ss;
  trace.save(ss);
  const WorkloadTrace loaded = WorkloadTrace::load(ss);
  ASSERT_EQ(loaded, trace);
  for (const HotSpotInstance& inst : loaded.instances) expect_summary_matches_runs(inst);
}

TEST(Executor, SoftwareOnlyMatchesClosedForm) {
  const auto set = h264sis::build_h264_si_set();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"X", {0}, 7}};
  trace.instances = {HotSpotInstance{0, std::vector<SiId>(10, 0), 1000}};
  SoftwareOnlyBackend backend(&set);
  const SimResult r = run_trace(trace, backend);
  EXPECT_EQ(r.total_cycles, 1000u + 10u * (set.si(0).software_latency + 7));
  EXPECT_EQ(r.atom_loads, 0u);
}

// --- the port-quiet replay walk (sim/port_window_backend.h) ---------------

TEST(PortWindow, ExecutionsBeforeMatchesCountingLoop) {
  const Cycles now = 1000;
  for (std::uint64_t count = 1; count <= 12; ++count)
    for (Cycles step = 0; step <= 12; ++step)
      for (Cycles gap = 1; gap <= 60; ++gap) {
        std::uint64_t before = 0;
        for (std::uint64_t k = 0; k < count; ++k)
          if (now + k * step < now + gap) ++before;
        ASSERT_EQ(executions_before(now + gap, now, count, step), before)
            << "count " << count << " step " << step << " window " << gap;
      }
}

/// A port that follows a script: each event sets one SI's latency at a fixed
/// time. An SI in `first_use` asks the port, at its first execution of every
/// instance, for half its latency, which arrives kRequestDelay cycles later
/// (OneChip's demand loading in miniature). While an SI's latency is below
/// the trap's it executes in hardware and LRU-stamps its molecule 0.
class ScriptedBackend final : public PortWindowBackend<ScriptedBackend> {
 public:
  static constexpr Cycles kRequestDelay = 37;
  using Events = std::multimap<Cycles, std::pair<SiId, Cycles>>;  // at -> (si, latency)

  ScriptedBackend(const SpecialInstructionSet* set, std::size_t hot_spot_count, Events events,
                  std::vector<SiId> first_use)
      : PortWindowBackend(set, hot_spot_count),
        events_(std::move(events)),
        first_use_(std::move(first_use)) {
    reopen_.assign(set->si_count(), 0);
  }

  std::string_view name() const override { return "Scripted"; }

  std::vector<std::pair<SiId, Cycles>> requests;  // (si, when) per first use
  const std::vector<Cycles>& lru_stamps() const { return type_last_used_; }
  const ExecutionMonitor& monitor() const { return monitor_; }

 private:
  friend class PortWindowBackend<ScriptedBackend>;
  static constexpr bool kFirstUseReopen = true;

  void enter_hot_spot(const WorkloadTrace& trace, std::size_t instance, Cycles) {
    monitor_.begin_hot_spot(trace.instances[instance].hot_spot);
    for (const SiId si : first_use_) reopen_[si] = 1;
  }

  Cycles open_window(Cycles now, SiId si) {
    for (auto it = events_.begin(); it != events_.end() && it->first <= now;
         it = events_.erase(it)) {
      const auto [event_si, latency] = it->second;
      cached_latency_[event_si] = latency;
      cached_molecule_[event_si] =
          latency < set_->si(event_si).software_latency ? 0 : kSoftwareMolecule;
    }
    if (reopen_[si]) {
      reopen_[si] = 0;
      requests.emplace_back(si, now);
      events_.emplace(now + kRequestDelay,
                      std::pair{si, std::max<Cycles>(1, cached_latency_[si] / 2)});
    }
    return events_.empty() ? kMaxCycles : events_.begin()->first;
  }

  Events events_;
  std::vector<SiId> first_use_;
};

struct WalkScript {
  ScriptedBackend::Events events;
  std::vector<SiId> first_use;
};

/// Everything a replay leaves behind besides the stats.
struct WalkObservation {
  SimResult result;
  std::vector<std::pair<SiId, Cycles>> requests;
  std::vector<Cycles> lru;
  std::vector<std::vector<std::uint64_t>> forecasts;  // per hot spot
  std::uint64_t runs_stepped = 0;  // sim.replay.runs_stepped (span walk only)
};

WalkObservation observe_walk(const SpecialInstructionSet& set, const WorkloadTrace& trace,
                             const WalkScript& script, SimStats* stats, ReplayMode mode) {
  ScriptedBackend backend(&set, trace.hot_spots.size(), script.events, script.first_use);
  WalkObservation o;
  const MetricCounter& stepped = metric_counter("sim.replay.runs_stepped");
  const std::uint64_t stepped_before = stepped.value();
  o.result = run_trace(trace, backend, stats, mode);
  o.runs_stepped = stepped.value() - stepped_before;
  o.requests = backend.requests;
  o.lru = backend.lru_stamps();
  for (HotSpotId hs = 0; hs < trace.hot_spots.size(); ++hs)
    o.forecasts.push_back(backend.monitor().forecast(hs));
  return o;
}

/// Replays `trace` through the scalar path, the per-run walk (stats, latency
/// segments) and the span walk (no stats), expects every observable to agree
/// and returns the per-run walk's stats. `span_runs_stepped`, when given,
/// receives the runs the span walk stepped one at a time.
SimStats expect_walks_agree(const SpecialInstructionSet& set, const WorkloadTrace& trace,
                            const WalkScript& script,
                            std::uint64_t* span_runs_stepped = nullptr) {
  SimStats scalar_stats(set.si_count()), run_stats(set.si_count());
  const WalkObservation scalar =
      observe_walk(set, trace, script, &scalar_stats, ReplayMode::kScalar);
  const WalkObservation runs = observe_walk(set, trace, script, &run_stats, ReplayMode::kBatched);
  const WalkObservation span = observe_walk(set, trace, script, nullptr, ReplayMode::kBatched);
  for (const WalkObservation* o : {&runs, &span}) {
    SCOPED_TRACE(o == &runs ? "per-run walk" : "span walk");
    EXPECT_EQ(o->result.total_cycles, scalar.result.total_cycles);
    EXPECT_EQ(o->result.si_executions, scalar.result.si_executions);
    EXPECT_EQ(o->result.hot_spot_cycles, scalar.result.hot_spot_cycles);
    EXPECT_EQ(o->requests, scalar.requests);
    EXPECT_EQ(o->lru, scalar.lru);
    EXPECT_EQ(o->forecasts, scalar.forecasts);
  }
  EXPECT_EQ(scalar.runs_stepped, 0u);
  EXPECT_EQ(runs.runs_stepped, 0u);
  if (span_runs_stepped != nullptr) *span_runs_stepped = span.runs_stepped;
  EXPECT_EQ(run_stats.bucket_count(), scalar_stats.bucket_count());
  for (SiId si = 0; si < set.si_count(); ++si) {
    EXPECT_EQ(run_stats.executions(si), scalar_stats.executions(si)) << "si " << si;
    for (std::size_t b = 0; b < scalar_stats.bucket_count(); ++b)
      EXPECT_EQ(run_stats.bucket_executions(si, b), scalar_stats.bucket_executions(si, b))
          << "si " << si << " bucket " << b;
    const auto& rt = run_stats.latency_timeline(si);
    const auto& st = scalar_stats.latency_timeline(si);
    EXPECT_EQ(rt.size(), st.size()) << "si " << si;
    for (std::size_t p = 0; p < std::min(rt.size(), st.size()); ++p) {
      EXPECT_EQ(rt[p].at, st[p].at) << "si " << si << " point " << p;
      EXPECT_EQ(rt[p].latency, st[p].latency) << "si " << si << " point " << p;
    }
  }
  return run_stats;
}

TEST(PortWindow, ScalarRunsAndSpanAgreeOnSeededTraces) {
  const auto set = h264sis::build_h264_si_set();
  const auto n = static_cast<std::int64_t>(set.si_count());
  // The span walk finishes last windows from the instance summaries, so it
  // steps fewer runs than it replays (each stepped run counts once).
  std::uint64_t replayed = 0, stepped = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256 rng(seed);
    WorkloadTrace trace;
    Cycles horizon = 0;
    for (int hs = 0; hs < 3; ++hs)
      trace.hot_spots.push_back(
          HotSpotInfo{"hs" + std::to_string(hs), {}, static_cast<Cycles>(rng.range(0, 20))});
    for (int i = 0; i < 8; ++i) {
      HotSpotInstance inst;
      inst.hot_spot = static_cast<HotSpotId>(rng.range(0, 2));
      inst.entry_overhead = static_cast<Cycles>(rng.range(0, 500));
      for (std::int64_t r = rng.range(1, 12); r > 0; --r)
        inst.append(static_cast<SiId>(rng.range(0, n - 1)),
                    static_cast<std::uint32_t>(rng.range(1, 300)));
      horizon += inst.entry_overhead;
      for (const SiRun& run : inst.runs)
        horizon += run.count * (set.si(run.si).software_latency +
                                trace.hot_spots[inst.hot_spot].per_execution_overhead);
      trace.instances.push_back(std::move(inst));
    }
    WalkScript script;
    for (int e = 0; e < 40; ++e) {
      const auto si = static_cast<SiId>(rng.range(0, n - 1));
      const auto latency =
          static_cast<Cycles>(rng.range(1, static_cast<std::int64_t>(set.si(si).software_latency)));
      script.events.emplace(static_cast<Cycles>(rng.range(1, static_cast<std::int64_t>(horizon / 2))),
                            std::pair{si, latency});
    }
    script.first_use = {static_cast<SiId>(rng.range(0, n - 1)),
                        static_cast<SiId>(rng.range(0, n - 1))};
    std::uint64_t seed_stepped = 0;
    expect_walks_agree(set, trace, script, &seed_stepped);
    stepped += seed_stepped;
    for (const HotSpotInstance& inst : trace.instances) replayed += inst.runs.size();
  }
  EXPECT_LT(stepped, replayed);
}

TEST(PortWindow, BlockRuleAgreesOnLongSeededInstances) {
  const auto set = h264sis::build_h264_si_set();
  const auto n = static_cast<std::int64_t>(set.si_count());
  // Instances of up to ~9 blocks over 2-4 SIs, port events inside them;
  // each first-use list is tried empty and with one or two of the SIs.
  std::uint64_t replayed = 0, stepped[2] = {0, 0};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256 rng(seed);
    std::vector<SiId> pool;
    for (std::int64_t k = rng.range(2, 4); static_cast<std::int64_t>(pool.size()) < k;) {
      const auto si = static_cast<SiId>(rng.range(0, n - 1));
      if (std::find(pool.begin(), pool.end(), si) == pool.end()) pool.push_back(si);
    }
    const auto pick = [&] {
      return pool[static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(pool.size()) - 1))];
    };
    WorkloadTrace trace;
    trace.hot_spots = {HotSpotInfo{"X", pool, static_cast<Cycles>(rng.range(0, 20))}};
    const Cycles overhead = trace.hot_spots[0].per_execution_overhead;
    Cycles horizon = 0;
    for (int i = 0; i < 4; ++i) {
      HotSpotInstance inst;
      inst.entry_overhead = static_cast<Cycles>(rng.range(0, 500));
      for (std::int64_t r = rng.range(1, 300); r > 0; --r) {
        SiId si = pick();
        if (!inst.runs.empty() && inst.runs.back().si == si)
          si = pool[(std::find(pool.begin(), pool.end(), si) - pool.begin() + 1) % pool.size()];
        inst.append(si, static_cast<std::uint32_t>(rng.range(1, 40)));
      }
      horizon += inst.entry_overhead;
      for (const SiRun& run : inst.runs)
        horizon += run.count * (set.si(run.si).software_latency + overhead);
      replayed += inst.runs.size();
      trace.instances.push_back(std::move(inst));
    }
    WalkScript script;
    for (int e = 0; e < 24; ++e) {
      const SiId si = pick();
      const auto latency =
          static_cast<Cycles>(rng.range(1, static_cast<std::int64_t>(set.si(si).software_latency)));
      script.events.emplace(
          static_cast<Cycles>(rng.range(1, static_cast<std::int64_t>(horizon / 3))),
          std::pair{si, latency});
    }
    for (int flagged = 0; flagged < 2; ++flagged) {
      SCOPED_TRACE(flagged == 0 ? "no first use" : "first use");
      if (flagged == 1)
        for (std::int64_t f = rng.range(1, 2); f > 0; --f) script.first_use.push_back(pick());
      std::uint64_t seed_stepped = 0;
      expect_walks_agree(set, trace, script, &seed_stepped);
      stepped[flagged] += seed_stepped;
    }
  }
  // Whole blocks are taken from checkpoints, so most runs are never stepped.
  EXPECT_LT(stepped[0] * 2, replayed);
  EXPECT_LT(stepped[1], replayed);
}

TEST(PortWindow, RunCrossesThreeWindows) {
  const auto set = h264sis::build_h264_si_set();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"X", {0}, 5}};
  HotSpotInstance inst;
  inst.append(0, 1000);
  trace.instances = {inst};
  // SAD drops from the trap's 1088 cycles three times within the run.
  const WalkScript script{{{3000, {0, 600}}, {9000, {0, 200}}, {20000, {0, 32}}}, {}};
  const SimStats stats = expect_walks_agree(set, trace, script);
  const auto& timeline = stats.latency_timeline(0);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[3].latency, 32u);
}

TEST(PortWindow, WindowEndOnAnExecutionStart) {
  const auto set = h264sis::build_h264_si_set();
  const Cycles step = set.si(0).software_latency + 5;
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"X", {0}, 5}};
  HotSpotInstance inst;
  inst.entry_overhead = 100;
  inst.append(0, 4);
  inst.append(3, 2);
  trace.instances = {inst};
  // The window ends exactly where the run's fourth and last execution
  // starts, so that execution already sees the new latency.
  const Cycles fourth = 100 + 3 * step;
  const WalkScript script{{{fourth, {0, 32}}}, {}};
  const SimStats stats = expect_walks_agree(set, trace, script);
  const auto& timeline = stats.latency_timeline(0);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[1].at, fourth);
  EXPECT_EQ(timeline[1].latency, 32u);
}

TEST(PortWindow, FirstUseReopensTheWindow) {
  const auto set = h264sis::build_h264_si_set();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"X", {0, 3}, 5}};
  HotSpotInstance inst;
  inst.append(3, 5);
  inst.append(0, 4);
  inst.append(3, 3);
  inst.append(0, 2);
  trace.instances = {inst, inst};
  // SAD's first execution of each instance requests the port: the request
  // fires exactly there, even inside a window no port event ends.
  const WalkScript script{{}, {0}};
  const WalkObservation span =
      observe_walk(set, trace, script, nullptr, ReplayMode::kBatched);
  const Cycles first_sad = 5 * (set.si(3).software_latency + 5);
  ASSERT_EQ(span.requests.size(), 2u);
  EXPECT_EQ(span.requests[0], (std::pair<SiId, Cycles>{0, first_sad}));
  const SimStats stats = expect_walks_agree(set, trace, script);
  // Half the trap's latency arrives kRequestDelay cycles after the request,
  // i.e. at SAD's first execution starting at or after that.
  const auto& timeline = stats.latency_timeline(0);
  ASSERT_GE(timeline.size(), 2u);
  EXPECT_EQ(timeline[1].latency, set.si(0).software_latency / 2);
  EXPECT_GE(timeline[1].at, first_sad + ScriptedBackend::kRequestDelay);
}

// --- the block rule: the span walk takes whole blocks of a window from the
// summary's checkpoints, and finishes an instance at its last one ---------

/// Hardware latencies from cycle 1 on (before any instance), so executions
/// LRU-stamp: SAD (atom type 0) 32, (I)HT 2x2 (type 2) 4, LF_BS4 (types 11
/// and 12) 33. Their atom types are disjoint, so each stamp is one SI's.
WalkScript hardware_script() {
  return WalkScript{{{1, {0, 32}}, {1, {3, 4}}, {1, {8, 33}}}, {}};
}

TEST(PortWindow, LastWindowShortcutWhenFinalExecutionStartsBeforeItsEnd) {
  const auto set = h264sis::build_h264_si_set();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"X", {0, 3}, 5}};
  HotSpotInstance inst;
  inst.entry_overhead = 100;
  inst.append(0, 4);
  inst.append(3, 2);
  trace.instances = {inst, inst};
  // SAD steps 37 cycles, HT 9: the final execution starts at
  // 100 + 4 * 37 + 9 = 257, one cycle before the window ends.
  const Cycles final_start = 257;
  WalkScript script = hardware_script();
  script.events.emplace(final_start + 1, std::pair<SiId, Cycles>{3, 2});
  const WalkObservation span = observe_walk(set, trace, script, nullptr, ReplayMode::kBatched);
  std::uint64_t stepped = 0;
  expect_walks_agree(set, trace, script, &stepped);
  // The first instance is one summary step; the second opens after the
  // event, with no port event left.
  EXPECT_EQ(stepped, 0u);
  EXPECT_EQ(span.result.hot_spot_cycles[0], 2 * 100 + 4 * 37 + 2 * 9 + 4 * 37 + 2 * 7u);
  EXPECT_EQ(span.lru[0], final_start + 9 + 100 + 3 * 37);  // SAD's last start
}

TEST(PortWindow, FinalExecutionAtTheWindowEndSeesTheNewLatency) {
  const auto set = h264sis::build_h264_si_set();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"X", {0, 3}, 5}};
  HotSpotInstance inst;
  inst.entry_overhead = 100;
  inst.append(0, 4);
  inst.append(3, 2);
  trace.instances = {inst};
  // The window ends exactly where the final execution starts: no shortcut,
  // and that execution takes the new latency.
  const Cycles final_start = 257;
  WalkScript script = hardware_script();
  script.events.emplace(final_start, std::pair<SiId, Cycles>{3, 2});
  std::uint64_t stepped = 0;
  const SimStats stats = expect_walks_agree(set, trace, script, &stepped);
  EXPECT_EQ(stepped, 2u);  // both runs in the first window; the second one finishes
  const auto& timeline = stats.latency_timeline(3);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[1].at, final_start);
  EXPECT_EQ(timeline[1].latency, 2u);
}

TEST(PortWindow, LastWindowOpensInsideAPartlyConsumedRun) {
  const auto set = h264sis::build_h264_si_set();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"X", {0, 3}, 5}};
  HotSpotInstance inst;
  inst.entry_overhead = 100;
  inst.append(0, 1000);
  inst.append(3, 5);
  inst.append(0, 10);
  trace.instances = {inst};
  // SAD drops to 16 while its first run is 301 executions in, so the last
  // window opens with 699 of that run left, and HT's stamp comes from the
  // ten SADs after it.
  WalkScript script = hardware_script();
  script.events.emplace(100 + 300 * 37 + 10, std::pair<SiId, Cycles>{0, 16});
  const WalkObservation span = observe_walk(set, trace, script, nullptr, ReplayMode::kBatched);
  std::uint64_t stepped = 0;
  expect_walks_agree(set, trace, script, &stepped);
  EXPECT_EQ(stepped, 1u);
  const Cycles resumed = 100 + 301 * 37;
  EXPECT_EQ(span.result.total_cycles, resumed + 699 * 21 + 5 * 9 + 10 * 21);
  EXPECT_EQ(span.lru[2], resumed + 699 * 21 + 4 * 9);  // HT's last start
}

TEST(PortWindow, StampOfAnSiThatOnlyStartsTheInstanceComesFromTheBackwardWalk) {
  const auto set = h264sis::build_h264_si_set();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"X", {0, 3, 8}, 5}};
  HotSpotInstance inst;
  inst.entry_overhead = 100;
  inst.append(8, 3);
  inst.append(0, 50);
  inst.append(3, 7);
  inst.append(0, 20);
  inst.append(3, 2);
  trace.instances = {inst};
  const WalkScript script = hardware_script();
  const WalkObservation span = observe_walk(set, trace, script, nullptr, ReplayMode::kBatched);
  std::uint64_t stepped = 0;
  expect_walks_agree(set, trace, script, &stepped);
  EXPECT_EQ(stepped, 0u);  // no port event: the whole instance is one summary step
  // LF_BS4 (step 38) last starts at its third execution, and 70 SADs and
  // 9 HTs follow it; SAD last starts before the final two HTs.
  EXPECT_EQ(span.lru[11], 100 + 2 * 38u);
  EXPECT_EQ(span.lru[12], 100 + 2 * 38u);
  EXPECT_EQ(span.lru[0], 100 + 3 * 38 + 50 * 37 + 7 * 9 + 19 * 37u);
}

TEST(PortWindow, FlaggedFirstUseSiBlocksTheShortcut) {
  const auto set = h264sis::build_h264_si_set();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"X", {0, 3}, 5}};
  HotSpotInstance inst;
  inst.entry_overhead = 100;
  inst.append(0, 20);
  inst.append(3, 5);
  inst.append(0, 3);
  trace.instances = {inst, inst};
  // No port event is pending, but HT still has to request the port at its
  // first execution (840 = 100 + 20 * 37), and the request's answer ends
  // the window it opens.
  WalkScript script = hardware_script();
  script.first_use = {3};
  const WalkObservation span = observe_walk(set, trace, script, nullptr, ReplayMode::kBatched);
  std::uint64_t stepped = 0;
  expect_walks_agree(set, trace, script, &stepped);
  ASSERT_EQ(span.requests.size(), 2u);
  EXPECT_EQ(span.requests[0], (std::pair<SiId, Cycles>{3, 840}));
  // Each instance steps the SADs before the request and HT's run; in the
  // second, HT is faster and the last SAD run starts before the request's
  // answer too, so it is stepped (partly) as well.
  EXPECT_EQ(stepped, 2 + 3u);
}

/// One hot spot over SAD, HT and LF_BS4 (per-execution overhead 5) and one
/// instance of `runs` runs after an entry overhead of 100: SAD x2 at even
/// runs and HT x3 at odd ones unless `replaced` gives a run another SI and
/// count.
WorkloadTrace block_trace(std::size_t runs,
                          const std::map<std::size_t, SiRun>& replaced = {}) {
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"X", {0, 3, 8}, 5}};
  HotSpotInstance inst;
  inst.entry_overhead = 100;
  for (std::size_t r = 0; r < runs; ++r) {
    const auto it = replaced.find(r);
    const SiRun run = it != replaced.end() ? it->second : r % 2 == 0 ? SiRun{0, 2} : SiRun{3, 3};
    inst.append(run.si, run.count);
  }
  trace.instances = {inst};
  return trace;
}

/// Where execution `e` of run `r` starts when every SI keeps its
/// hardware_script step from the entry on: SAD 37, HT 9, LF_BS4 38.
Cycles start_of(const HotSpotInstance& inst, std::size_t r, std::uint64_t e) {
  const auto step = [](SiId si) -> Cycles { return si == 0 ? 37 : si == 3 ? 9 : 38; };
  Cycles at = inst.entry_overhead;
  for (std::size_t q = 0; q < r; ++q) at += inst.runs[q].count * step(inst.runs[q].si);
  return at + e * step(inst.runs[r].si);
}

TEST(PortWindow, WindowEndingAtACheckpointsLastStartStopsABlockShort) {
  const auto set = h264sis::build_h264_si_set();
  const std::size_t block = SiSummary::kBlockRuns;
  const WorkloadTrace trace = block_trace(3 * block);
  // The last execution before the first checkpoint (HT's third in run 31).
  const Cycles last = start_of(trace.instances[0], block - 1, 2);
  for (const Cycles end : {last, last + 1}) {
    SCOPED_TRACE("window end " + std::to_string(end));
    WalkScript script = hardware_script();
    script.events.emplace(end, std::pair<SiId, Cycles>{3, 2});
    std::uint64_t stepped = 0;
    expect_walks_agree(set, trace, script, &stepped);
    // Ending at that start, the first block does not fit (the test is
    // strict): its runs are stepped and the last one splits at the event.
    // One cycle later the block is taken whole, the event falls inside its
    // last execution, and the next window takes the rest.
    EXPECT_EQ(stepped, end == last ? block : 0u);
  }
}

TEST(PortWindow, WindowOpensInsideAPartlyConsumedRunBeforeACheckpoint) {
  const auto set = h264sis::build_h264_si_set();
  const std::size_t block = SiSummary::kBlockRuns;
  const WorkloadTrace trace = block_trace(3 * block, {{block - 1, SiRun{3, 1000}}});
  const HotSpotInstance& inst = trace.instances[0];
  // SAD drops to 16 (step 21) after 101 of run 31's 1000 HTs, so the
  // second window opens on that run just before the first checkpoint. HT
  // drops to 2 where run 72's first SAD has started: that window takes the
  // rest of run 31 and the second block whole and steps runs 64 to 72.
  const Cycles run31_end = start_of(inst, block, 0);
  const Cycles run72 = run31_end + 20 * (2 * 21 + 3 * 9);
  WalkScript script = hardware_script();
  script.events.emplace(start_of(inst, block - 1, 100) + 5, std::pair<SiId, Cycles>{0, 16});
  script.events.emplace(run72 + 1, std::pair<SiId, Cycles>{3, 2});
  const WalkObservation span = observe_walk(set, trace, script, nullptr, ReplayMode::kBatched);
  std::uint64_t stepped = 0;
  expect_walks_agree(set, trace, script, &stepped);
  EXPECT_EQ(stepped, block + 9);
  // Runs 73 to 95 (12 HT, 11 SAD runs) follow at the new steps.
  EXPECT_EQ(span.result.total_cycles, run72 + 2 * 21 + 12 * 3 * 7 + 11 * 2 * 21u);
}

TEST(PortWindow, InstanceOfExactlyTwoBlocks) {
  const auto set = h264sis::build_h264_si_set();
  const std::size_t block = SiSummary::kBlockRuns;
  const WorkloadTrace trace = block_trace(2 * block);
  const SiSummary& summary = trace.instances[0].summary();
  // One stored checkpoint; the second is the instance end.
  ASSERT_EQ(summary.checkpoints(), 2u);
  EXPECT_EQ(summary.checkpoint_runs(0), block);
  EXPECT_EQ(summary.checkpoint_runs(1), 2 * block);
  EXPECT_EQ(std::vector<std::uint64_t>(summary.checkpoint(0).begin(), summary.checkpoint(0).end()),
            (std::vector<std::uint64_t>{block, 3 * block / 2}));
  EXPECT_EQ(std::vector<std::uint64_t>(summary.checkpoint(1).begin(), summary.checkpoint(1).end()),
            (std::vector<std::uint64_t>{2 * block, 3 * block}));
  std::uint64_t stepped = 0;
  expect_walks_agree(set, trace, hardware_script(), &stepped);
  EXPECT_EQ(stepped, 0u);  // no port event: one window takes the end checkpoint
  // SAD drops to 16 after run 40's first execution: the first window takes
  // the first block and steps runs 32 to 40, the second takes the end.
  WalkScript script = hardware_script();
  script.events.emplace(start_of(trace.instances[0], 40, 0) + 1, std::pair<SiId, Cycles>{0, 16});
  expect_walks_agree(set, trace, script, &stepped);
  EXPECT_EQ(stepped, 9u);
}

TEST(PortWindow, StampOfAnSiOnlyInsideASkippedBlockComesFromTheBackwardWalk) {
  const auto set = h264sis::build_h264_si_set();
  const std::size_t block = SiSummary::kBlockRuns;
  // LF_BS4 runs once, as run 5; SAD drops to 16 inside run 70, so the first
  // window takes two blocks whole and the backward walk from run 63 finds
  // LF_BS4's last start.
  const WorkloadTrace trace = block_trace(3 * block, {{5, SiRun{8, 3}}});
  const HotSpotInstance& inst = trace.instances[0];
  WalkScript script = hardware_script();
  script.events.emplace(start_of(inst, 70, 0) + 1, std::pair<SiId, Cycles>{0, 16});
  const WalkObservation span = observe_walk(set, trace, script, nullptr, ReplayMode::kBatched);
  std::uint64_t stepped = 0;
  expect_walks_agree(set, trace, script, &stepped);
  EXPECT_EQ(stepped, 7u);  // runs 64 to 70
  EXPECT_EQ(span.lru[11], start_of(inst, 5, 2));
  EXPECT_EQ(span.lru[12], start_of(inst, 5, 2));
}

TEST(PortWindow, FlaggedFirstUseSiAfterACheckpointBlocksTheBlockRule) {
  const auto set = h264sis::build_h264_si_set();
  const std::size_t block = SiSummary::kBlockRuns;
  // Runs 0 to 39 alternate SAD and LF_BS4; HT first runs at run 40 (x10),
  // after the first checkpoint, and is flagged for first use.
  std::map<std::size_t, SiRun> replaced;
  for (std::size_t r = 1; r < 40; r += 2) replaced[r] = SiRun{8, 2};
  for (std::size_t r = 40; r < 3 * block; r += 2) replaced[r] = SiRun{3, 10};
  for (std::size_t r = 41; r < 3 * block; r += 2) replaced[r] = SiRun{0, 2};
  const WorkloadTrace trace = block_trace(3 * block, replaced);
  std::uint64_t stepped = 0;
  expect_walks_agree(set, trace, hardware_script(), &stepped);
  EXPECT_EQ(stepped, 0u);
  WalkScript script = hardware_script();
  script.first_use = {3};
  const WalkObservation span = observe_walk(set, trace, script, nullptr, ReplayMode::kBatched);
  expect_walks_agree(set, trace, script, &stepped);
  // The first window takes no block although the first checkpoint fits: it
  // steps runs 0 to 39 and ends before HT's first run. HT's request ends
  // the next window five executions into run 40; the last takes the rest.
  ASSERT_EQ(span.requests.size(), 1u);
  EXPECT_EQ(span.requests[0], (std::pair<SiId, Cycles>{3, start_of(trace.instances[0], 40, 0)}));
  EXPECT_EQ(stepped, 41u);
}

}  // namespace
}  // namespace rispp
