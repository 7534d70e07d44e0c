// Forecast-parametric replay (DESIGN §6.2): the RTM's path store answers a
// decision-memo miss by re-running a recorded decision's forecast-dependent
// picks. Every decision it answers — replayed or recomputed — must equal the
// full selection→schedule pipeline under the same forecast, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/prng.h"
#include "config/h264_platform.h"
#include "config/platform_parser.h"
#include "dse/design_point.h"
#include "fleet/trace_repository.h"
#include "isa/h264_si_library.h"
#include "jpeg/jpeg_si_library.h"
#include "rtm/path_store.h"
#include "rtm/run_time_manager.h"
#include "sched/hef.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp {
namespace {

/// Everything a decision depends on except the forecast.
struct DecisionCase {
  const SpecialInstructionSet* set = nullptr;
  std::vector<SiId> sis;
  Molecule ready;
  unsigned budget = 0;
  Cycles payback = 0;
  const AtomScheduler* scheduler = nullptr;
};

/// The RTM's selection→schedule pipeline, recording into `record` if given.
DecisionMemo::Decision pipeline(const DecisionCase& c, const std::vector<std::uint64_t>& forecast,
                                DecisionPath* record) {
  if (record != nullptr) record->clear();
  SelectionRequest sel;
  sel.set = c.set;
  sel.hot_spot_sis = c.sis;
  sel.expected_executions = forecast;
  sel.container_count = c.budget;
  sel.record = record != nullptr ? &record->selection : nullptr;
  DecisionMemo::Decision decision;
  decision.selection = select_molecules(sel);

  ScheduleRequest sched;
  sched.set = c.set;
  sched.selected = decision.selection;
  sched.available = c.ready;
  sched.expected_executions = forecast;
  sched.payback_cycles_per_atom = c.payback;
  sched.record = record != nullptr ? &record->schedule : nullptr;
  decision.loads = c.scheduler->schedule(sched).loads;
  if (record != nullptr) record->decision = decision;
  return decision;
}

/// Answers one memo miss through `store` and checks it against the full
/// pipeline and the reference selection.
PathStore::Answer expect_answer_is_exact(PathStore& store, const DecisionCase& c,
                                         const std::vector<std::uint64_t>& forecast) {
  const DecisionMemo::Decision full = pipeline(c, forecast, nullptr);
  SelectionRequest reference;
  reference.set = c.set;
  reference.hot_spot_sis = c.sis;
  reference.expected_executions = forecast;
  reference.container_count = c.budget;
  EXPECT_EQ(full.selection, select_molecules_reference(reference));

  DecisionMemo::Decision out;
  const PathStore::Answer answer =
      store.answer(c.sis, c.ready, c.budget, forecast, c.payback, out,
                   [&](DecisionPath* record) { out = pipeline(c, forecast, record); });
  EXPECT_EQ(out.selection, full.selection);
  EXPECT_EQ(out.loads, full.loads);
  return answer;
}

/// A HEF variant whose pick ignores the atom count: it reads the forecast
/// outside the logged picks, like bench/ablation_benefit_metric's AblatedHef,
/// so it never marks its record complete.
class WeightedGainFirst final : public AtomScheduler {
 public:
  std::string_view name() const override { return "WeightedGainFirst"; }
  Schedule schedule(const ScheduleRequest& request) const override {
    UpgradeState state(request);
    for (;;) {
      const auto& live = state.live_candidates();
      const SiRef* chosen = nullptr;
      std::uint64_t best = 0;
      for (const SiRef& o : live) {
        const std::uint64_t gain =
            state.expected_executions(o.si) * (state.best_latency(o.si) - state.latency(o));
        if (gain > best) {
          best = gain;
          chosen = &o;
        }
      }
      if (chosen == nullptr) break;
      state.commit(*chosen);
    }
    return state.take_schedule();
  }
};

/// Forwards to another scheduler, like perfbench's TimedScheduler.
class Forwarding final : public AtomScheduler {
 public:
  explicit Forwarding(const AtomScheduler& inner) : inner_(inner) {}
  std::string_view name() const override { return inner_.name(); }
  Schedule schedule(const ScheduleRequest& request) const override {
    return inner_.schedule(request);
  }

 private:
  const AtomScheduler& inner_;
};

TEST(PathStore, AnswersEqualTheFullPipelineUnderForecastPerturbation) {
  // Both SI sets and three seeded DSE mutants; random SI subsets, ready
  // atoms, budgets, payback on and off, all four strategies. Each case walks
  // 16 forecasts, each entry perturbed by up to 0, 1, 10 or 50% per step and
  // now and then set to zero and back, through one store: the first miss
  // computes, the second records, later ones replay or diverge.
  std::vector<SpecialInstructionSet> sets;
  sets.push_back(h264sis::build_h264_si_set());
  sets.push_back(jpegsis::build_jpeg_si_set());
  dse::DesignPoint point = dse::degraded_seed(config::h264_platform_spec());
  Xoshiro256 mutation_rng(41);
  for (int mutant = 0; mutant < 3; ++mutant) {
    for (int step = 0; step < 4; ++step) dse::mutate(point, mutation_rng);
    sets.push_back(config::build_platform(point.spec));
  }
  std::vector<std::unique_ptr<AtomScheduler>> schedulers;
  for (const std::string& name : scheduler_names()) schedulers.push_back(make_scheduler(name));

  Xoshiro256 rng(2024);
  std::map<PathStore::Answer, int> answers;
  constexpr int kCases = 400;
  for (int trial = 0; trial < kCases; ++trial) {
    SCOPED_TRACE(trial);
    DecisionCase c;
    c.set = &sets[trial % sets.size()];
    const SpecialInstructionSet& set = *c.set;
    c.scheduler = schedulers[(trial / sets.size()) % schedulers.size()].get();
    c.payback = rng.bounded(2) == 0 ? 0 : 500 + rng.bounded(20'000);
    // A quarter of the cases get a budget no selection fills, so the
    // selection stops reading the forecast and the schedule's picks carry
    // every divergence.
    c.budget = static_cast<unsigned>(rng.bounded(4) == 0 ? 64 : rng.bounded(25));
    const std::size_t n = 1 + rng.bounded(std::min<std::size_t>(set.si_count(), 6));
    while (c.sis.size() < n) {
      const auto si = static_cast<SiId>(rng.bounded(set.si_count()));
      if (std::find(c.sis.begin(), c.sis.end(), si) == c.sis.end()) c.sis.push_back(si);
    }
    // Ready atoms: cold, or a random molecule of one or two hot-spot SIs.
    c.ready = Molecule(set.atom_type_count());
    for (std::uint64_t warm = rng.bounded(3); warm > 0; --warm) {
      const SpecialInstruction& s = set.si(c.sis[rng.bounded(c.sis.size())]);
      join_into(c.ready, s.molecules[rng.bounded(s.molecules.size())].atoms);
    }

    std::vector<std::uint64_t> base(set.si_count(), 0);
    for (SiId si : c.sis) base[si] = rng.bounded(8) == 0 ? 0 : 1 + rng.bounded(50'000);
    std::vector<std::uint64_t> forecast = base;
    PathStore store;
    for (int step = 0; step < 16; ++step) {
      const std::int64_t per_mille =
          std::array<std::int64_t, 4>{0, 10, 100, 500}[rng.bounded(4)];
      for (SiId si : c.sis) {
        if (rng.bounded(16) == 0) {
          forecast[si] = 0;
        } else if (forecast[si] == 0) {
          if (rng.bounded(2) == 0) forecast[si] = base[si];
        } else {
          forecast[si] = base[si] * static_cast<std::uint64_t>(
                                        1000 + rng.range(-per_mille, per_mille)) / 1000;
        }
      }
      ++answers[expect_answer_is_exact(store, c, forecast)];
      if (HasFailure()) return;
    }
  }
  // Every case computes on its first two sightings only; after that, most
  // misses replay and the rest diverge.
  EXPECT_EQ(answers[PathStore::Answer::kComputed], kCases * 2);
  EXPECT_GT(answers[PathStore::Answer::kReplayed], kCases * 6);
  EXPECT_GT(answers[PathStore::Answer::kDiverged], kCases * 2);
}

TEST(PathStore, RecordsFromTheSecondSightingAndReplaysAfter) {
  const auto set = h264sis::build_h264_si_set();
  const auto hef = make_scheduler("HEF");
  DecisionCase c;
  c.set = &set;
  c.sis = {set.find("SAD").value(), set.find("SATD").value()};
  c.ready = Molecule(set.atom_type_count());
  c.budget = 17;
  c.scheduler = hef.get();
  std::vector<std::uint64_t> forecast(set.si_count(), 0);
  forecast[c.sis[0]] = 87'500;
  forecast[c.sis[1]] = 12'500;

  PathStore store;
  EXPECT_EQ(expect_answer_is_exact(store, c, forecast), PathStore::Answer::kComputed);
  EXPECT_EQ(store.size(), 0u) << "a first sighting records nothing";
  EXPECT_EQ(expect_answer_is_exact(store, c, forecast), PathStore::Answer::kComputed);
  EXPECT_EQ(store.size(), 1u) << "the second sighting records";
  forecast[c.sis[0]] += 1;  // a drift too small to change any pick
  EXPECT_EQ(expect_answer_is_exact(store, c, forecast), PathStore::Answer::kReplayed);
  forecast[c.sis[0]] = 0;  // SAD unexecuted: the selection drops it
  EXPECT_EQ(expect_answer_is_exact(store, c, forecast), PathStore::Answer::kDiverged);
  EXPECT_EQ(expect_answer_is_exact(store, c, forecast), PathStore::Answer::kReplayed)
      << "the divergence recorded the new path";

  // Other ready atoms make another key; the store stays bounded.
  for (AtomCount extra = 1; extra <= 2 * PathStore::kCapacity; ++extra) {
    c.ready[0] = extra;
    expect_answer_is_exact(store, c, forecast);
    expect_answer_is_exact(store, c, forecast);
  }
  EXPECT_EQ(store.size(), PathStore::kCapacity);
}

TEST(PathStore, DuplicateSisLeaveTheSelectionUnrecorded) {
  // Duplicate SI ids take select_molecules_reference, which records nothing,
  // so a path holding such a selection is never replayable.
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  SelectionRecord record;
  SelectionRequest request;
  request.set = &set;
  request.hot_spot_sis = {sad, sad};
  request.expected_executions.assign(set.si_count(), 0);
  request.expected_executions[sad] = 1000;
  request.container_count = 10;
  request.record = &record;
  EXPECT_EQ(select_molecules(request), select_molecules_reference(request));
  EXPECT_FALSE(record.complete);
  EXPECT_EQ(record.rounds.rounds(), 0u);
  EXPECT_FALSE(record.replays(request.expected_executions));

  request.hot_spot_sis = {sad};
  select_molecules(request);
  EXPECT_TRUE(record.complete);
  EXPECT_TRUE(record.replays(request.expected_executions));
}

/// One replay of `entry` with `scheduler`; `replays` receives the RTM's
/// replay count.
SimResult replay(const fleet::TraceEntry& entry, const AtomScheduler& scheduler, unsigned acs,
                 unsigned payback_horizon, bool memo, std::uint64_t* replays = nullptr) {
  RtmConfig config;
  config.container_count = acs;
  config.scheduler = &scheduler;
  config.payback_horizon = payback_horizon;
  config.enable_decision_cache = memo;
  RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), config);
  seed_forecasts(rtm, entry.seeds);
  const SimResult result = run_trace(entry.trace, rtm);
  if (replays != nullptr) *replays = rtm.decision_cache_replays();
  return result;
}

fleet::SessionSpec small_session(fleet::Content content, int frames) {
  fleet::SessionSpec spec;
  spec.content = content;
  spec.frames = frames;
  spec.width = content == fleet::Content::kH264 ? 96 : 128;
  spec.height = content == fleet::Content::kH264 ? 64 : 96;
  return spec;
}

TEST(RunTimeManager, PathReplaysMatchTheMemoOffPipeline) {
  // The RTM's own decide(): monitored forecasts drift at every instance, so
  // most memo misses replay; the run must equal the memo-off oracle for
  // every strategy, with payback on and off, on both workloads.
  fleet::TraceRepository repo;
  for (const fleet::Content content : {fleet::Content::kH264, fleet::Content::kJpeg}) {
    const fleet::TraceEntry& entry = repo.get(small_session(content, 24));
    for (const std::string& name : scheduler_names())
      for (const unsigned payback_horizon : {0u, 16u})
        for (const unsigned acs : {6u, 12u}) {
          SCOPED_TRACE(name + " payback " + std::to_string(payback_horizon) + " acs " +
                       std::to_string(acs));
          const auto scheduler = make_scheduler(name);
          std::uint64_t replays = 0;
          const SimResult on = replay(entry, *scheduler, acs, payback_horizon, true, &replays);
          const SimResult off = replay(entry, *scheduler, acs, payback_horizon, false);
          EXPECT_EQ(on.total_cycles, off.total_cycles);
          EXPECT_EQ(on.atom_loads, off.atom_loads);
          EXPECT_EQ(on.hot_spot_cycles, off.hot_spot_cycles);
          EXPECT_GT(replays, 0u);
        }
  }
}

TEST(RunTimeManager, ForecastReadingSchedulerIsNeverReplayed) {
  // A scheduler that reads the forecast in its own pick never marks its
  // record complete, so its decisions always run in full; a wrapper that
  // forwards the request to a built-in strategy replays like the strategy.
  fleet::TraceRepository repo;
  const fleet::TraceEntry& entry = repo.get(small_session(fleet::Content::kH264, 6));
  const WeightedGainFirst custom;
  std::uint64_t replays = 0;
  const SimResult on = replay(entry, custom, 8, 16, true, &replays);
  const SimResult off = replay(entry, custom, 8, 16, false);
  EXPECT_EQ(replays, 0u);
  EXPECT_EQ(on.total_cycles, off.total_cycles);
  EXPECT_EQ(on.hot_spot_cycles, off.hot_spot_cycles);

  const HefScheduler hef;
  const Forwarding forwarding(hef);
  const SimResult wrapped = replay(entry, forwarding, 8, 16, true, &replays);
  EXPECT_GT(replays, 0u);
  EXPECT_EQ(wrapped.total_cycles, replay(entry, hef, 8, 16, false).total_cycles);
}

}  // namespace
}  // namespace rispp
