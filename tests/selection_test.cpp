// Tests for the Molecule selection substrate (NA <= #ACs guarantee, profit
// behaviour, budget monotonicity).
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "isa/h264_si_library.h"
#include "base/prng.h"
#include "jpeg/jpeg_si_library.h"
#include "select/optimal.h"
#include "select/selection.h"

namespace rispp {
namespace {

SelectionRequest h264_me_request(const SpecialInstructionSet& set, unsigned acs) {
  SelectionRequest req;
  req.set = &set;
  req.hot_spot_sis = {set.find("SAD").value(), set.find("SATD").value()};
  req.expected_executions.assign(set.si_count(), 0);
  req.expected_executions[req.hot_spot_sis[0]] = 24'000;
  req.expected_executions[req.hot_spot_sis[1]] = 3'600;
  req.container_count = acs;
  return req;
}

TEST(Selection, RespectsContainerBudget) {
  const auto set = h264sis::build_h264_si_set();
  for (unsigned acs = 0; acs <= 24; ++acs) {
    const auto req = h264_me_request(set, acs);
    const auto selection = select_molecules(req);
    EXPECT_LE(selection_atom_count(set, selection), acs) << acs;
  }
}

TEST(Selection, ZeroBudgetSelectsNothing) {
  const auto set = h264sis::build_h264_si_set();
  EXPECT_TRUE(select_molecules(h264_me_request(set, 0)).empty());
}

TEST(Selection, AtMostOneMoleculePerSi) {
  const auto set = h264sis::build_h264_si_set();
  const auto selection = select_molecules(h264_me_request(set, 20));
  std::vector<bool> seen(set.si_count(), false);
  for (const SiRef& s : selection) {
    EXPECT_FALSE(seen[s.si]);
    seen[s.si] = true;
  }
}

TEST(Selection, LargerBudgetNeverWorsensTotalBenefit) {
  const auto set = h264sis::build_h264_si_set();
  auto benefit_of = [&](const std::vector<SiRef>& sel,
                        const SelectionRequest& req) {
    long double total = 0.0L;
    for (const SiRef& s : sel) {
      const Cycles gain = set.si(s.si).software_latency - set.latency(s);
      total += static_cast<long double>(req.expected_executions[s.si]) * gain;
    }
    return total;
  };
  long double prev = -1.0L;
  for (unsigned acs = 4; acs <= 24; acs += 2) {
    const auto req = h264_me_request(set, acs);
    const long double b = benefit_of(select_molecules(req), req);
    EXPECT_GE(b, prev) << "budget " << acs;
    prev = b;
  }
}

TEST(Selection, PrefersTheHeavilyExecutedSi) {
  // With a budget that fits only one SI's molecule, the hot one wins.
  const auto set = h264sis::build_h264_si_set();
  SelectionRequest req;
  req.set = &set;
  const SiId sad = set.find("SAD").value();
  const SiId lf = set.find("LF_BS4").value();
  req.hot_spot_sis = {sad, lf};
  req.expected_executions.assign(set.si_count(), 0);
  req.expected_executions[sad] = 50'000;
  req.expected_executions[lf] = 10;
  req.container_count = 3;
  const auto selection = select_molecules(req);
  ASSERT_FALSE(selection.empty());
  for (const SiRef& s : selection) EXPECT_EQ(s.si, sad);
}

TEST(Selection, SharedAtomsMakeJointSelectionCheaper) {
  // SATD and (I)HT 4x4 share HadCore/SAV: selecting both must cost less than
  // the sum of their individual atom counts.
  const auto set = h264sis::build_h264_si_set();
  const SiId satd = set.find("SATD").value();
  const SiId ht4 = set.find("(I)HT 4x4").value();
  SelectionRequest req;
  req.set = &set;
  req.hot_spot_sis = {satd, ht4};
  req.expected_executions.assign(set.si_count(), 0);
  req.expected_executions[satd] = 10'000;
  req.expected_executions[ht4] = 10'000;
  req.container_count = 24;
  const auto selection = select_molecules(req);
  ASSERT_EQ(selection.size(), 2u);
  unsigned individual = 0;
  for (const SiRef& s : selection)
    individual += set.si(s.si).molecule(s.mol).atoms.determinant();
  EXPECT_LT(selection_atom_count(set, selection), individual);
}

TEST(Selection, GreedyMatchesExhaustiveOptimumOnRandomInstances) {
  const auto set = h264sis::build_h264_si_set();
  Xoshiro256 rng(31);
  int within_five_percent = 0;
  constexpr int kTrials = 20;
  for (int trial = 0; trial < kTrials; ++trial) {
    SelectionRequest req;
    req.set = &set;
    req.expected_executions.assign(set.si_count(), 0);
    // Two to three SIs with small molecule lists keep the search tractable.
    const std::vector<std::string> pool{"SAD", "LF_BS4", "(I)HT 4x4", "IPred HDC",
                                        "IPred VDC", "(I)HT 2x2"};
    for (int k = 0; k < 3; ++k) {
      const SiId si = set.find(pool[rng.bounded(pool.size())]).value();
      if (std::find(req.hot_spot_sis.begin(), req.hot_spot_sis.end(), si) !=
          req.hot_spot_sis.end())
        continue;
      req.hot_spot_sis.push_back(si);
      req.expected_executions[si] = 1 + rng.bounded(20'000);
    }
    req.container_count = 2 + static_cast<unsigned>(rng.bounded(14));

    const long double greedy = selection_benefit(req, select_molecules(req));
    const long double optimal = selection_benefit(req, select_molecules_optimal(req));
    EXPECT_LE(greedy, optimal + 1e-6L);
    if (greedy >= optimal * 0.95L - 1e-6L) ++within_five_percent;
  }
  EXPECT_GE(within_five_percent, kTrials - 2);
}

TEST(Selection, IncrementalMatchesReferenceOnRandomInstances) {
  // select_molecules is the incremental (prefix/suffix-join) rewrite of the
  // greedy algorithm; select_molecules_reference is the original, kept as
  // the oracle. Equivalence must be exact — the same SiRef sequence, not
  // merely the same benefit — because replay bit-exactness depends on it.
  // Duplicate hot_spot_sis entries are deliberately generated: the
  // incremental path must detect them and fall back to the reference
  // (positional vs by-value exclusion would otherwise diverge).
  const auto h264 = h264sis::build_h264_si_set();
  const auto jpeg = jpegsis::build_jpeg_si_set();
  Xoshiro256 rng(97);
  int duplicate_instances = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const SpecialInstructionSet& set = (trial % 2 == 0) ? h264 : jpeg;
    SelectionRequest req;
    req.set = &set;
    req.expected_executions.assign(set.si_count(), 0);
    const std::size_t n = 1 + rng.bounded(set.si_count() + 2);
    for (std::size_t k = 0; k < n; ++k) {
      const SiId si = static_cast<SiId>(rng.bounded(set.si_count()));
      req.hot_spot_sis.push_back(si);  // duplicates intentionally possible
      req.expected_executions[si] = rng.bounded(50'000);  // may stay zero
    }
    std::vector<SiId> sorted = req.hot_spot_sis;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
      ++duplicate_instances;
    req.container_count = static_cast<unsigned>(rng.bounded(25));

    const auto fast = select_molecules(req);
    const auto reference = select_molecules_reference(req);
    ASSERT_EQ(fast, reference) << "trial " << trial;
  }
  // The generator must actually exercise the duplicate-SIs fallback.
  EXPECT_GT(duplicate_instances, 50);
}

TEST(Selection, IncrementalStaysWithinOptimalOnSmallRandomInstances) {
  // Cross-check the incremental path against the exhaustive optimum too
  // (the reference-equivalence above makes this transitive, but a direct
  // bound keeps the property visible if the reference ever changes).
  const auto set = h264sis::build_h264_si_set();
  Xoshiro256 rng(131);
  const std::vector<std::string> pool{"SAD", "LF_BS4", "(I)HT 4x4", "IPred HDC",
                                      "IPred VDC", "(I)HT 2x2"};
  for (int trial = 0; trial < 20; ++trial) {
    SelectionRequest req;
    req.set = &set;
    req.expected_executions.assign(set.si_count(), 0);
    for (int k = 0; k < 3; ++k) {
      const SiId si = set.find(pool[rng.bounded(pool.size())]).value();
      if (std::find(req.hot_spot_sis.begin(), req.hot_spot_sis.end(), si) !=
          req.hot_spot_sis.end())
        continue;
      req.hot_spot_sis.push_back(si);
      req.expected_executions[si] = 1 + rng.bounded(30'000);
    }
    req.container_count = 2 + static_cast<unsigned>(rng.bounded(12));
    const long double greedy = selection_benefit(req, select_molecules(req));
    const long double optimal = selection_benefit(req, select_molecules_optimal(req));
    EXPECT_LE(greedy, optimal + 1e-6L) << "trial " << trial;
  }
}

TEST(Selection, OptimalSearchRefusesHugeInstances) {
  const auto set = h264sis::build_h264_si_set();
  SelectionRequest req;
  req.set = &set;
  req.expected_executions.assign(set.si_count(), 100);
  for (SiId si = 0; si < set.si_count(); ++si) req.hot_spot_sis.push_back(si);
  req.container_count = 24;
  EXPECT_THROW(select_molecules_optimal(req), std::logic_error);
}

TEST(Selection, ZeroExpectationsSelectNothing) {
  const auto set = h264sis::build_h264_si_set();
  auto req = h264_me_request(set, 24);
  req.expected_executions.assign(set.si_count(), 0);
  EXPECT_TRUE(select_molecules(req).empty());
}

// ---- The exact pick against the long double ranking it replaced ---------

/// The long double pick select_molecules_reference still ranks by.
std::uint32_t long_double_pick(std::span<const SelectionTrial> trials,
                               const std::vector<std::uint64_t>& expected) {
  std::uint32_t best = kNoPick;
  long double best_score = 0.0L;
  for (std::uint32_t i = 0; i < trials.size(); ++i) {
    const SelectionTrial& t = trials[i];
    const long double profit =
        static_cast<long double>(expected[t.si]) * static_cast<long double>(t.gain);
    if (profit <= 0.0L) continue;
    const long double density =
        profit / static_cast<long double>(t.growth == 0 ? 1 : t.growth);
    const long double score = t.growth == 0 ? density * 1e9L : density;
    if (best == kNoPick || score > best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

TEST(Selection, ExactPickMatchesLongDoubleOnRandomAndTieHeavyTables) {
  Xoshiro256 rng(2718);
  std::vector<std::uint64_t> expected(8);
  std::vector<SelectionTrial> trials;
  unsigned picks = 0, free_picks = 0;
  for (int table = 0; table < 100'000; ++table) {
    // Odd tables draw from tiny ranges, so equal scores are common.
    const bool ties = table % 2 == 1;
    for (auto& e : expected) e = ties ? rng.bounded(4) : rng.bounded(1u << 24);
    trials.resize(1 + rng.bounded(12));
    for (SelectionTrial& t : trials) {
      t.si = static_cast<SiId>(rng.bounded(expected.size()));
      t.gain = ties ? 1 + rng.bounded(4) : 1 + rng.bounded((1u << 16) - 1);
      t.growth = static_cast<unsigned>(ties ? rng.bounded(5) : rng.bounded(65));
    }
    const std::uint32_t pick = pick_best_trial(trials, expected);
    ASSERT_EQ(pick, long_double_pick(trials, expected)) << "table " << table;
    if (pick != kNoPick) {
      ++picks;
      free_picks += trials[pick].growth == 0;
    }
  }
  EXPECT_GT(picks, 90'000u);
  EXPECT_GT(free_picks, 10'000u);
}

TEST(Selection, ExactPickTakesTheLargerOfTwoScoresLongDoubleTies) {
  // (2^62 + 5)/7 < 1,976,436,865,040,309,104/3 by 1/21, below one ulp of a
  // long double near 2^59.
  const std::vector<std::uint64_t> expected{4'611'686'018'427'387'909ull,
                                            1'976'436'865'040'309'104ull};
  const std::vector<SelectionTrial> trials{
      SelectionTrial{.si = 0, .mol = 0, .trial_det = 7, .growth = 7, .gain = 1},
      SelectionTrial{.si = 1, .mol = 0, .trial_det = 3, .growth = 3, .gain = 1}};
  ASSERT_LT(static_cast<__uint128_t>(expected[0]) * 3, static_cast<__uint128_t>(expected[1]) * 7);
  EXPECT_EQ(long_double_pick(trials, expected), 0u);
  EXPECT_EQ(pick_best_trial(trials, expected), 1u);
}

TEST(Selection, ExactPickThrowsNamingTheSiWhenAProfitOverflows) {
  std::vector<std::uint64_t> expected(4, 0);
  expected[3] = std::numeric_limits<std::uint64_t>::max();
  std::vector<SelectionTrial> trials{SelectionTrial{.si = 3, .mol = 0, .growth = 1, .gain = 1}};
  EXPECT_EQ(pick_best_trial(trials, expected), 0u);  // 2^64 - 1 still fits
  expected[3] = 1ull << 63;
  trials[0].gain = 2;
  try {
    (void)pick_best_trial(trials, expected);
    FAIL() << "a profit of 2^64 did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("forecast product of SI 3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rispp
