// Tests for the §4 Atom schedulers: the scheduling function and validity
// condition, the strategy behaviours (FSFR/ASF/SJF/HEF), the Figure 6
// pseudocode, the division-free benefit comparison, and oracle comparisons.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <string>

#include "base/prng.h"
#include "isa/h264_si_library.h"
#include "jpeg/jpeg_si_library.h"
#include "sched/asf.h"
#include "sched/fsfr.h"
#include "sched/hef.h"
#include "sched/oracle.h"
#include "sched/registry.h"
#include "sched/sjf.h"

namespace rispp {
namespace {

/// The Figure 4 example: one SI over two atom types with molecules
/// m1=(1,2), m2=(2,2), m3=(3,3) and the incomparable m4=(1,3).
SpecialInstructionSet figure4_set() {
  AtomLibrary lib;
  lib.add({"A1", 2, 100, 400});
  lib.add({"A2", 2, 100, 400});
  SpecialInstructionSet set(std::move(lib));
  DataPathGraph g(&set.library());
  const auto l1 = g.add_layer(0, 6);
  g.add_layer(1, 6, l1);
  set.add_si("SI", std::move(g), Molecule{3, 3}, 200);
  return set;
}

MoleculeId find_molecule(const SpecialInstruction& si, const Molecule& atoms) {
  for (MoleculeId m = 0; m < si.molecules.size(); ++m)
    if (si.molecules[m].atoms == atoms) return m;
  return kSoftwareMolecule;
}

ScheduleRequest figure4_request(const SpecialInstructionSet& set) {
  ScheduleRequest req;
  req.set = &set;
  const MoleculeId m3 = find_molecule(set.si(0), Molecule{3, 3});
  EXPECT_NE(m3, kSoftwareMolecule);
  req.selected = {SiRef{0, m3}};
  req.available = Molecule(2);
  req.expected_executions = {1000};
  return req;
}

class EveryScheduler : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryScheduler, Figure4ScheduleIsValidAndComplete) {
  const auto set = figure4_set();
  const auto req = figure4_request(set);
  const auto scheduler = make_scheduler(GetParam());
  const Schedule schedule = scheduler->schedule(req);
  EXPECT_TRUE(is_valid_schedule(req, schedule));
  // Cold start, no cleaning shortcut possible: exact condition (2) — the
  // load multiset equals sup(M) = (3,3).
  std::map<AtomTypeId, int> counts;
  for (AtomTypeId t : schedule.loads) ++counts[t];
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 3);
}

TEST_P(EveryScheduler, WarmStartLoadsOnlyMissingAtoms) {
  const auto set = figure4_set();
  auto req = figure4_request(set);
  req.available = Molecule{2, 1};
  const Schedule schedule = make_scheduler(GetParam())->schedule(req);
  EXPECT_TRUE(is_valid_schedule(req, schedule));
  std::map<AtomTypeId, int> counts;
  for (AtomTypeId t : schedule.loads) ++counts[t];
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
}

TEST_P(EveryScheduler, NothingToScheduleYieldsEmpty) {
  const auto set = figure4_set();
  auto req = figure4_request(set);
  req.available = Molecule{3, 3};  // everything already loaded
  const Schedule schedule = make_scheduler(GetParam())->schedule(req);
  EXPECT_TRUE(schedule.loads.empty());
  EXPECT_TRUE(is_valid_schedule(req, schedule));
}

TEST_P(EveryScheduler, EmptySelectionYieldsEmptySchedule) {
  const auto set = figure4_set();
  ScheduleRequest req;
  req.set = &set;
  req.available = Molecule(2);
  req.expected_executions = {1000};
  const Schedule schedule = make_scheduler(GetParam())->schedule(req);
  EXPECT_TRUE(schedule.loads.empty());
}

TEST_P(EveryScheduler, H264FullSelectionSchedulesAreValid) {
  const auto set = h264sis::build_h264_si_set();
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    ScheduleRequest req;
    req.set = &set;
    req.expected_executions.assign(set.si_count(), 0);
    // Random selection: a random molecule for a random subset of SIs.
    for (SiId si = 0; si < set.si_count(); ++si) {
      if (rng.bounded(2) == 0) continue;
      const auto& mols = set.si(si).molecules;
      req.selected.push_back(SiRef{si, static_cast<MoleculeId>(rng.bounded(mols.size()))});
      req.expected_executions[si] = 1 + rng.bounded(10'000);
    }
    // Random warm start.
    Molecule avail(set.atom_type_count());
    for (std::size_t t = 0; t < avail.dimension(); ++t)
      avail[t] = static_cast<AtomCount>(rng.bounded(3));
    req.available = avail;
    const Schedule schedule = make_scheduler(GetParam())->schedule(req);
    EXPECT_TRUE(is_valid_schedule(req, schedule)) << GetParam() << " trial " << trial;
  }
}

TEST_P(EveryScheduler, StepsComposeMonotonicallyImprovingMolecules) {
  const auto set = h264sis::build_h264_si_set();
  ScheduleRequest req;
  req.set = &set;
  req.expected_executions.assign(set.si_count(), 1000);
  const SiId satd = set.find("SATD").value();
  const SiId sad = set.find("SAD").value();
  req.selected = {SiRef{sad, 2}, SiRef{satd, static_cast<MoleculeId>(
                                            set.si(satd).molecules.size() - 1)}};
  req.available = Molecule(set.atom_type_count());
  req.expected_executions[sad] = 24'000;
  req.expected_executions[satd] = 3'600;
  const Schedule schedule = make_scheduler(GetParam())->schedule(req);

  // Replaying the steps: every committed molecule strictly improves the
  // latency of its SI at the moment of completion.
  Molecule a = req.available;
  std::vector<Cycles> best(set.si_count());
  for (SiId si = 0; si < set.si_count(); ++si)
    best[si] = set.fastest_available_latency(si, a);
  for (const UpgradeStep& step : schedule.steps) {
    const Cycles lat = set.latency(step.molecule);
    EXPECT_LT(lat, best[step.molecule.si]) << GetParam();
    best[step.molecule.si] = lat;
    a = join(a, set.si(step.molecule.si).molecule(step.molecule.mol).atoms);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, EveryScheduler,
                         ::testing::Values("FSFR", "ASF", "SJF", "HEF"));

// ---- Figure 4 behaviour ---------------------------------------------------

TEST(Schedulers, HefProducesTheGoodFigure4Schedule) {
  // The good schedule of Figure 4 composes m1=(1,2) after 3 atoms and
  // m2=(2,2) after 4, instead of waiting for m3=(3,3) at 6.
  const auto set = figure4_set();
  const auto req = figure4_request(set);
  const Schedule schedule = HefScheduler().schedule(req);
  ASSERT_GE(schedule.steps.size(), 2u);  // upgrades through intermediates
  // First step must be a small intermediate, not the full m3.
  const auto& first = set.si(0).molecule(schedule.steps.front().molecule.mol);
  EXPECT_LT(first.atoms.determinant(), 6u);
}

TEST(Schedulers, UpgradePathReachesSelectedLatency) {
  const auto set = figure4_set();
  const auto req = figure4_request(set);
  for (const auto& name : scheduler_names()) {
    const Schedule schedule = make_scheduler(name)->schedule(req);
    Molecule a = req.available;
    for (AtomTypeId t : schedule.loads) ++a[t];
    EXPECT_EQ(set.fastest_available_latency(0, a), set.latency(req.selected[0]))
        << name;
  }
}

// ---- Strategy-specific behaviour -------------------------------------------

/// Two SIs; SI0 hugely important, SI1 barely executed.
SpecialInstructionSet two_si_set() {
  AtomLibrary lib;
  lib.add({"A", 2, 60, 400});
  lib.add({"B", 2, 60, 400});
  SpecialInstructionSet set(std::move(lib));
  {
    DataPathGraph g(&set.library());
    g.add_layer(0, 8);
    set.add_si("Hot", std::move(g), Molecule{4, 0}, 100);
  }
  {
    DataPathGraph g(&set.library());
    g.add_layer(1, 8);
    set.add_si("Cold", std::move(g), Molecule{4, 0} /*unused dims ok*/, 100);
  }
  return set;
}

ScheduleRequest two_si_request(const SpecialInstructionSet& set) {
  ScheduleRequest req;
  req.set = &set;
  const auto last0 = static_cast<MoleculeId>(set.si(0).molecules.size() - 1);
  const auto last1 = static_cast<MoleculeId>(set.si(1).molecules.size() - 1);
  req.selected = {SiRef{0, last0}, SiRef{1, last1}};
  req.available = Molecule(2);
  req.expected_executions = {100'000, 10};
  return req;
}

TEST(Schedulers, FsfrFinishesImportantSiBeforeTouchingTheOther) {
  const auto set = two_si_set();
  const auto req = two_si_request(set);
  const Schedule schedule = FsfrScheduler().schedule(req);
  // All atom-type-0 loads (Hot SI) must precede any type-1 load.
  bool seen_cold = false;
  for (AtomTypeId t : schedule.loads) {
    if (t == 1) seen_cold = true;
    if (t == 0) {
      EXPECT_FALSE(seen_cold) << "FSFR interleaved the second SI";
    }
  }
}

TEST(Schedulers, AsfAcceleratesEverySiBeforeDeepUpgrades) {
  const auto set = two_si_set();
  const auto req = two_si_request(set);
  const Schedule schedule = AsfScheduler().schedule(req);
  // Within the first two steps both SIs must have a molecule.
  ASSERT_GE(schedule.steps.size(), 2u);
  EXPECT_NE(schedule.steps[0].molecule.si, schedule.steps[1].molecule.si);
}

TEST(Schedulers, SjfPrefersLocallySmallestStep) {
  const auto set = h264sis::build_h264_si_set();
  ScheduleRequest req;
  req.set = &set;
  req.expected_executions.assign(set.si_count(), 1000);
  const SiId sad = set.find("SAD").value();
  const SiId lf = set.find("LF_BS4").value();
  req.selected = {SiRef{sad, 2},
                  SiRef{lf, static_cast<MoleculeId>(set.si(lf).molecules.size() - 1)}};
  req.available = Molecule(set.atom_type_count());
  const Schedule schedule = SjfScheduler().schedule(req);
  EXPECT_TRUE(is_valid_schedule(req, schedule));
  // After phase 1 (both smallest), the remaining steps are sorted by
  // additional atom count (non-decreasing per commit decision is not
  // guaranteed globally, but each step must be the minimum at its time —
  // verified by replay).
  Molecule a = req.available;
  std::vector<Cycles> best(set.si_count());
  for (SiId si = 0; si < set.si_count(); ++si)
    best[si] = set.fastest_available_latency(si, a);
  const auto candidates = smaller_candidates(set, req.selected);
  for (std::size_t k = 2; k < schedule.steps.size(); ++k) {
    // Recompute availability after steps 0..k-1.
    Molecule avail = req.available;
    for (std::size_t j = 0; j < k; ++j)
      avail = join(avail, set.si(schedule.steps[j].molecule.si)
                              .molecule(schedule.steps[j].molecule.mol)
                              .atoms);
    std::vector<Cycles> bl(set.si_count());
    for (SiId si = 0; si < set.si_count(); ++si)
      bl[si] = set.fastest_available_latency(si, avail);
    unsigned chosen_cost =
        missing(avail, set.si(schedule.steps[k].molecule.si)
                           .molecule(schedule.steps[k].molecule.mol)
                           .atoms)
            .determinant();
    for (const SiRef& c : candidates) {
      if (!candidate_is_live(set, c, avail, bl[c.si])) continue;
      const unsigned cost = missing(avail, set.si(c.si).molecule(c.mol).atoms).determinant();
      EXPECT_LE(chosen_cost, cost) << "SJF step " << k << " not minimal";
    }
  }
}

// ---- HEF pseudocode details -------------------------------------------------

TEST(Hef, BenefitComparisonMatchesExactRational) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 2000; ++i) {
    Benefit a{rng.bounded(1'000'000'000), 1 + rng.bounded(40)};
    Benefit b{rng.bounded(1'000'000'000), 1 + rng.bounded(40)};
    const bool fast = benefit_greater(a, b);
    const long double exact_a =
        static_cast<long double>(a.gain_weighted) / static_cast<long double>(a.atoms);
    const long double exact_b =
        static_cast<long double>(b.gain_weighted) / static_cast<long double>(b.atoms);
    EXPECT_EQ(fast, exact_a > exact_b);
  }
}

TEST(Schedulers, ForecastPicksThrowNamingTheSiWhenAProductOverflows) {
  std::vector<std::uint64_t> expected(4, 0);
  expected[3] = std::numeric_limits<std::uint64_t>::max();
  const std::vector<CandidateRow> rows{CandidateRow{SiRef{3, 0}, 1, 1}};
  // 2^64 - 1 still fits.
  EXPECT_EQ(pick_most_important(rows, expected), 0u);
  EXPECT_EQ(pick_highest_benefit(rows, expected), 0u);
  expected[3] = 1ull << 63;
  const std::vector<CandidateRow> doubled{CandidateRow{SiRef{3, 0}, 1, 2}};
  for (const auto pick : {pick_most_important, pick_highest_benefit}) {
    try {
      (void)pick(doubled, expected);
      ADD_FAILURE() << "a product of 2^64 did not throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("forecast product of SI 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Hef, BenefitComparisonRequiresPositiveAtomCounts) {
  EXPECT_THROW(benefit_greater(Benefit{1, 0}, Benefit{1, 1}), std::logic_error);
}

TEST(Hef, CountersAccumulateFsmWork) {
  const auto set = figure4_set();
  const auto req = figure4_request(set);
  HefCostCounters counters;
  HefScheduler hef(&counters);
  (void)hef.schedule(req);
  EXPECT_EQ(counters.invocations, 1u);
  EXPECT_GT(counters.rounds, 0u);
  EXPECT_GT(counters.benefit_evaluations, 0u);
  EXPECT_EQ(counters.benefit_evaluations, counters.benefit_comparisons);
  EXPECT_GT(counters.commits, 0u);
  EXPECT_EQ(counters.atoms_scheduled, 6u);  // sup = (3,3), cold start
  (void)hef.schedule(req);
  EXPECT_EQ(counters.invocations, 2u);
}

TEST(Hef, ZeroExpectedExecutionsStillProducesValidSchedule) {
  const auto set = figure4_set();
  auto req = figure4_request(set);
  req.expected_executions = {0};
  const Schedule schedule = HefScheduler().schedule(req);
  // All benefits are zero; HEF commits nothing (nothing is worth loading).
  EXPECT_TRUE(schedule.loads.empty());
}

TEST(Hef, PicksHighestBenefitFirst) {
  // Two independent single-type SIs; SI0: small gain, 1 atom; SI1: large
  // gain, 1 atom. HEF must upgrade SI1 first.
  AtomLibrary lib;
  lib.add({"A", 1, 10, 100});
  lib.add({"B", 1, 50, 100});
  SpecialInstructionSet set(std::move(lib));
  {
    DataPathGraph g(&set.library());
    g.add_layer(0, 4);
    set.add_si("small", std::move(g), Molecule{1, 0}, 10);
  }
  {
    DataPathGraph g(&set.library());
    g.add_layer(1, 4);
    set.add_si("large", std::move(g), Molecule{0, 1}, 10);
  }
  ScheduleRequest req;
  req.set = &set;
  req.selected = {SiRef{0, 0}, SiRef{1, 0}};
  req.available = Molecule(2);
  req.expected_executions = {100, 100};
  const Schedule schedule = HefScheduler().schedule(req);
  ASSERT_EQ(schedule.loads.size(), 2u);
  EXPECT_EQ(schedule.loads[0], 1);  // the large-gain SI's atom type B
  EXPECT_EQ(schedule.loads[1], 0);
}

// ---- Oracle ------------------------------------------------------------------

TEST(Oracle, MatchesExhaustiveCostOnFigure4) {
  const auto set = figure4_set();
  const auto req = figure4_request(set);
  constexpr Cycles kAtomCycles = 87'403;
  OracleScheduler oracle(kAtomCycles);
  const Schedule best = oracle.schedule(req);
  EXPECT_TRUE(is_valid_schedule(req, best));
  const long double best_cost = weighted_wait_cost(req, best, kAtomCycles);
  for (const auto& name : scheduler_names()) {
    const Schedule s = make_scheduler(name)->schedule(req);
    EXPECT_GE(weighted_wait_cost(req, s, kAtomCycles), best_cost - 1e-6L) << name;
  }
}

TEST(Oracle, HefIsNearOptimalOnSmallRandomInstances) {
  const auto set = h264sis::build_h264_si_set();
  constexpr Cycles kAtomCycles = 87'403;
  Xoshiro256 rng(11);
  int hef_within_10_percent = 0;
  constexpr int kTrials = 12;
  for (int trial = 0; trial < kTrials; ++trial) {
    ScheduleRequest req;
    req.set = &set;
    req.expected_executions.assign(set.si_count(), 0);
    // Two small SIs to keep the oracle tractable.
    const SiId a = set.find("SAD").value();
    const SiId b = set.find("LF_BS4").value();
    req.selected = {
        SiRef{a, static_cast<MoleculeId>(rng.bounded(set.si(a).molecules.size()))},
        SiRef{b, static_cast<MoleculeId>(rng.bounded(set.si(b).molecules.size()))}};
    req.expected_executions[a] = 1 + rng.bounded(30'000);
    req.expected_executions[b] = 1 + rng.bounded(3'000);
    req.available = Molecule(set.atom_type_count());

    const long double opt =
        weighted_wait_cost(req, OracleScheduler(kAtomCycles).schedule(req), kAtomCycles);
    const long double hef =
        weighted_wait_cost(req, HefScheduler().schedule(req), kAtomCycles);
    EXPECT_GE(hef, opt - 1e-6L);
    if (hef <= opt * 1.10L + 1e-6L) ++hef_within_10_percent;
  }
  EXPECT_GE(hef_within_10_percent, kTrials - 2);
}

/// One strategy's weighted_wait_cost gap to the oracle over a set of
/// instances, in parts per million of the optimum (floored, exact integers).
struct OptimalityGap {
  unsigned optimal = 0;  // instances on which the strategy's cost is optimal
  std::uint64_t mean_ppm = 0;
  std::uint64_t p90_ppm = 0;  // nearest rank
  std::uint64_t max_ppm = 0;
  bool operator==(const OptimalityGap&) const = default;
};

void PrintTo(const OptimalityGap& g, std::ostream* os) {
  *os << "{" << g.optimal << ", " << g.mean_ppm << ", " << g.p90_ppm << ", " << g.max_ppm
      << "}";
}

TEST(Oracle, GapOfEveryStrategyIsPinned) {
  // The standing optimality gate: seeded 2-3-SI instances from the H.264 and
  // JPEG sets (random selected molecules, forecasts and warm-start atoms,
  // within the oracle's 40-candidate limit), each strategy's cost gap to the
  // exhaustive optimum pinned exactly. A change to a strategy's pick loop
  // that moves a gap must say so by editing the constants below.
  const auto h264 = h264sis::build_h264_si_set();
  const auto jpeg = jpegsis::build_jpeg_si_set();
  constexpr Cycles kAtomCycles = 87'403;
  constexpr int kInstances = 120;
  Xoshiro256 rng(2026);
  std::map<std::string, std::vector<std::uint64_t>> gaps;
  for (int instance = 0; instance < kInstances;) {
    const SpecialInstructionSet& set = instance % 2 == 0 ? h264 : jpeg;
    ScheduleRequest req;
    req.set = &set;
    req.expected_executions.assign(set.si_count(), 0);
    const std::size_t n = 2 + rng.bounded(2);
    while (req.selected.size() < n) {
      const auto si = static_cast<SiId>(rng.bounded(set.si_count()));
      if (std::any_of(req.selected.begin(), req.selected.end(),
                      [&](const SiRef& s) { return s.si == si; }))
        continue;
      req.selected.push_back(
          SiRef{si, static_cast<MoleculeId>(rng.bounded(set.si(si).molecules.size()))});
      req.expected_executions[si] = 1 + rng.bounded(30'000);
    }
    // Warm start: about half the instances hold a random smaller molecule
    // of one selected SI, so some of its upgrade steps cost fewer atoms.
    req.available = Molecule(set.atom_type_count());
    if (rng.bounded(2) == 1) {
      const SiRef& warm = req.selected[rng.bounded(req.selected.size())];
      const auto smaller = smaller_candidates(set, std::span<const SiRef>(&warm, 1));
      req.available = set.si(warm.si).molecule(smaller[rng.bounded(smaller.size())].mol).atoms;
    }
    if (smaller_candidates(set, req.selected).size() > 40) continue;  // the oracle's limit
    ++instance;

    const long double opt =
        weighted_wait_cost(req, OracleScheduler(kAtomCycles).schedule(req), kAtomCycles);
    ASSERT_EQ(opt, std::floor(opt)) << "costs are integers below 2^64";
    for (const auto& name : scheduler_names()) {
      const long double cost =
          weighted_wait_cost(req, make_scheduler(name)->schedule(req), kAtomCycles);
      ASSERT_GE(cost, opt) << name << " beat the oracle on instance " << instance;
      const auto excess = static_cast<__uint128_t>(cost - opt);
      gaps[name].push_back(opt == 0 ? 0
                                    : static_cast<std::uint64_t>(
                                          excess * 1'000'000 /
                                          static_cast<__uint128_t>(opt)));
    }
  }

  const std::map<std::string, OptimalityGap> pinned = {
      {"FSFR", {32, 179'791, 453'051, 846'497}},
      {"ASF", {44, 187'555, 571'768, 1'318'431}},
      {"SJF", {69, 14'902, 37'020, 420'419}},
      {"HEF", {87, 2'519, 842, 57'670}},
  };
  for (auto& [name, g] : gaps) {
    std::sort(g.begin(), g.end());
    OptimalityGap measured;
    measured.optimal = static_cast<unsigned>(std::count(g.begin(), g.end(), 0u));
    measured.mean_ppm = std::accumulate(g.begin(), g.end(), std::uint64_t{0}) / g.size();
    measured.p90_ppm = g[(g.size() * 9 + 9) / 10 - 1];
    measured.max_ppm = g.back();
    EXPECT_EQ(measured, pinned.at(name)) << name;
  }
}

TEST(Oracle, RefusesHugeInstances) {
  const auto set = h264sis::build_h264_si_set();
  ScheduleRequest req;
  req.set = &set;
  req.expected_executions.assign(set.si_count(), 100);
  for (SiId si = 0; si < set.si_count(); ++si)
    req.selected.push_back(
        SiRef{si, static_cast<MoleculeId>(set.si(si).molecules.size() - 1)});
  req.available = Molecule(set.atom_type_count());
  EXPECT_THROW(OracleScheduler(87'403).schedule(req), std::logic_error);
}

// ---- Registry -----------------------------------------------------------------

TEST(Registry, KnowsAllFourStrategies) {
  const auto names = scheduler_names();
  ASSERT_EQ(names.size(), 4u);
  for (const auto& name : names) {
    const auto s = make_scheduler(name);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), name);
  }
  EXPECT_THROW(make_scheduler("BOGUS"), std::logic_error);
}

}  // namespace
}  // namespace rispp
