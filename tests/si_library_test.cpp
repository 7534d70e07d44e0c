// Tests of the SI abstraction and the Table 1 H.264 SI library.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "base/prng.h"
#include "config/h264_platform.h"
#include "config/platform_parser.h"
#include "dse/design_point.h"
#include "isa/candidates.h"
#include "isa/h264_si_library.h"
#include "isa/si.h"
#include "jpeg/jpeg_si_library.h"

namespace rispp {
namespace {

using h264sis::build_h264_si_set;

SpecialInstructionSet tiny_set() {
  AtomLibrary lib;
  lib.add({"A", 2, 40, 400});
  lib.add({"B", 1, 30, 300});
  SpecialInstructionSet set(std::move(lib));
  DataPathGraph g(&set.library());
  const auto a = g.add_layer(0, 4);
  g.add_layer(1, 2, a);
  set.add_si("T", std::move(g), Molecule{3, 2}, 50);
  return set;
}

TEST(SpecialInstructionSet, BasicAccessors) {
  const auto set = tiny_set();
  EXPECT_EQ(set.si_count(), 1u);
  EXPECT_EQ(set.atom_type_count(), 2u);
  EXPECT_TRUE(set.find("T").has_value());
  EXPECT_FALSE(set.find("U").has_value());
  const SpecialInstruction& si = set.si(0);
  EXPECT_EQ(si.name, "T");
  EXPECT_EQ(si.software_latency, 4u * 40 + 2u * 30 + 50);
  EXPECT_GE(si.molecules.size(), 2u);
}

TEST(SpecialInstructionSet, SoftwareMoleculeLatency) {
  const auto set = tiny_set();
  EXPECT_EQ(set.latency(SiRef{0, kSoftwareMolecule}), set.si(0).software_latency);
}

TEST(SpecialInstructionSet, FastestAvailableWalksUpgradePath) {
  const auto set = tiny_set();
  const SpecialInstruction& si = set.si(0);
  // Nothing loaded -> software.
  EXPECT_EQ(set.fastest_available(0, Molecule(2)), kSoftwareMolecule);
  // Full sup loaded -> the fastest molecule.
  Molecule all(2);
  for (const auto& m : si.molecules) all = join(all, m.atoms);
  const MoleculeId best = set.fastest_available(0, all);
  ASSERT_NE(best, kSoftwareMolecule);
  for (const auto& m : si.molecules) EXPECT_LE(si.molecule(best).latency, m.latency);
  // Availability is monotone: adding atoms never increases latency.
  Molecule partial(2);
  Cycles prev = set.fastest_available_latency(0, partial);
  for (AtomTypeId t = 0; t < 2; ++t) {
    for (int k = 0; k < 3; ++k) {
      ++partial[t];
      const Cycles now = set.fastest_available_latency(0, partial);
      EXPECT_LE(now, prev);
      prev = now;
    }
  }
}

/// The lookup oracle: the lowest latency among molecules whose atoms are all
/// within `available`, the lowest id on equal latency, the trap when nothing
/// fits.
MoleculeId brute_force_fastest(const SpecialInstruction& si, const Molecule& available) {
  MoleculeId best = kSoftwareMolecule;
  for (MoleculeId m = 0; m < si.molecules.size(); ++m) {
    const Molecule& atoms = si.molecules[m].atoms;
    bool fits = true;
    for (std::size_t t = 0; t < atoms.dimension(); ++t) fits = fits && atoms[t] <= available[t];
    if (fits && (best == kSoftwareMolecule ||
                 si.molecules[m].latency < si.molecules[best].latency))
      best = m;
  }
  return best;
}

/// Checks fastest_available and sis_using against brute force on `samples`
/// seeded random availability vectors per SI, cycling through five shapes:
/// nothing loaded; sparse (a quarter of the types loaded); dense (each count
/// drawn from [0, sup + 1] of that type over the SI's molecules, so fits,
/// partial fits and no-fits all occur); above every need; and exactly one
/// molecule's atoms, where |available| equals that molecule's determinant
/// (the lookup's prefilter boundary).
void expect_lookup_matches_oracle(const SpecialInstructionSet& set, std::uint64_t seed,
                                  int samples) {
  const std::size_t dimension = set.atom_type_count();
  for (AtomTypeId t = 0; t < dimension; ++t) {
    std::vector<SiId> users;
    for (SiId id = 0; id < set.si_count(); ++id)
      for (const MoleculeImpl& m : set.si(id).molecules)
        if (m.atoms[t] != 0) {
          users.push_back(id);
          break;
        }
    const std::span<const SiId> got = set.sis_using(t);
    EXPECT_EQ(std::vector<SiId>(got.begin(), got.end()), users) << "type " << t;
  }

  Xoshiro256 rng(seed);
  unsigned hardware = 0, trapped = 0;
  for (SiId id = 0; id < set.si_count(); ++id) {
    const SpecialInstruction& si = set.si(id);
    Molecule sup(dimension);
    for (const MoleculeImpl& m : si.molecules) join_into(sup, m.atoms);
    Molecule available(dimension);
    for (int sample = 0; sample < samples; ++sample) {
      const int shape = sample % 5;
      available.assign_zero(dimension);
      for (std::size_t t = 0; t < dimension; ++t) {
        if (shape == 1 && rng.bounded(4) == 0)
          available[t] = static_cast<AtomCount>(1 + rng.bounded(sup[t] + 1u));
        if (shape == 2) available[t] = static_cast<AtomCount>(rng.bounded(sup[t] + 2u));
        if (shape == 3) available[t] = static_cast<AtomCount>(sup[t] + rng.bounded(3));
      }
      if (shape == 4 && !si.molecules.empty())
        available = si.molecules[rng.bounded(si.molecules.size())].atoms;
      const MoleculeId expected = brute_force_fastest(si, available);
      ASSERT_EQ(set.fastest_available(id, available), expected)
          << si.name << " at " << available.to_string();
      EXPECT_EQ(set.fastest_available_latency(id, available), si.latency(expected));
      ++(expected == kSoftwareMolecule ? trapped : hardware);
    }
  }
  // Both the early exit and the no-fit path were exercised.
  EXPECT_GT(hardware, 0u);
  EXPECT_GT(trapped, 0u);
}

TEST(SpecialInstructionSet, FastestAvailableMatchesOracleOnH264AndJpeg) {
  const SpecialInstructionSet h264 = build_h264_si_set();
  ASSERT_EQ(h264.si(h264.find("SATD").value()).molecules.size(), 20u);
  expect_lookup_matches_oracle(h264, 1, 400);
  expect_lookup_matches_oracle(jpegsis::build_jpeg_si_set(), 2, 400);
}

TEST(SpecialInstructionSet, FastestAvailableMatchesOracleOnMutatedPlatforms) {
  // A seeded DSE walk from the degraded Table 1 platform: fused atoms,
  // raised and lowered caps, unthinned molecule lists.
  dse::DesignPoint point = dse::degraded_seed(config::h264_platform_spec());
  Xoshiro256 rng(17);
  for (int step = 0; step < 12; ++step) {
    dse::mutate(point, rng);
    SCOPED_TRACE(step);
    expect_lookup_matches_oracle(config::build_platform(point.spec), 100 + step, 60);
  }
}

TEST(SpecialInstructionSet, FastestAvailableBreaksLatencyTiesByLowestId) {
  // Two 4-wide layers behind a barrier, equal op latencies: latency is
  // ceil(4/a) + ceil(4/b) rounds, so (1,2) and (2,1) tie. Thinning to 7
  // drops (2,2), which would beat both, so availability (2,2) fits exactly
  // the two tied molecules and (1,1).
  AtomLibrary lib;
  lib.add({"A", 3, 40, 400});
  lib.add({"B", 3, 40, 400});
  SpecialInstructionSet set(std::move(lib));
  DataPathGraph g(&set.library());
  const auto a = g.add_layer(0, 4);
  g.add_layer(1, 4, a);
  set.add_si("Tie", std::move(g), Molecule{4, 4}, 50, /*molecule_target=*/7);
  const SpecialInstruction& si = set.si(0);

  const Molecule available{2, 2};
  std::vector<MoleculeId> tied;
  const MoleculeId best = brute_force_fastest(si, available);
  ASSERT_NE(best, kSoftwareMolecule);
  for (MoleculeId m = 0; m < si.molecules.size(); ++m)
    if (leq(si.molecules[m].atoms, available) &&
        si.molecules[m].latency == si.molecules[best].latency)
      tied.push_back(m);
  ASSERT_EQ(tied.size(), 2u) << "the premise: two fitting molecules share the best latency";
  EXPECT_EQ(set.fastest_available(0, available), tied.front());
  EXPECT_EQ(si.latency_order.size(), si.molecules.size());
}

TEST(SpecialInstructionSet, DuplicateSiNameThrows) {
  auto set = tiny_set();
  DataPathGraph g(&set.library());
  g.add_node(0);
  EXPECT_THROW(set.add_si("T", std::move(g), Molecule{1, 0}, 10), std::logic_error);
}

/// Adds SI "U", one layer of two A ops, to `set`.
void add_u(SpecialInstructionSet& set) {
  DataPathGraph g(&set.library());
  g.add_layer(0, 2);
  set.add_si("U", std::move(g), Molecule{2, 0}, 20);
}

TEST(SpecialInstructionSet, FingerprintIsMemoizedUntilAddSiAndMovesAlong) {
  auto set = tiny_set();
  const std::uint64_t first = fingerprint(set);
  EXPECT_EQ(fingerprint(set), first);
  EXPECT_EQ(fingerprint(tiny_set()), first);  // a fresh set's, computed anew
  add_u(set);
  const std::uint64_t grown = fingerprint(set);
  EXPECT_NE(grown, first);
  auto fresh = tiny_set();
  add_u(fresh);
  EXPECT_EQ(grown, fingerprint(fresh));
  const SpecialInstructionSet moved(std::move(set));
  EXPECT_EQ(fingerprint(moved), grown);
}

// ---- Table 1 ---------------------------------------------------------------

TEST(H264SiLibrary, Table1AtomTypesPerSi) {
  const auto set = build_h264_si_set();
  const std::map<std::string, unsigned> expected{
      {"SAD", 1},      {"SATD", 4},      {"(I)DCT", 3},
      {"(I)HT 2x2", 1}, {"(I)HT 4x4", 2}, {"MC 4", 3},
      {"IPred HDC", 2}, {"IPred VDC", 1}, {"LF_BS4", 2},
  };
  ASSERT_EQ(set.si_count(), expected.size());
  for (const auto& [name, types] : expected) {
    const auto id = set.find(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_EQ(set.si(*id).graph.occurrences().type_count(), types) << name;
  }
}

TEST(H264SiLibrary, Table1MoleculeCounts) {
  const auto set = build_h264_si_set();
  const std::map<std::string, std::size_t> expected{
      {"SAD", 3},      {"SATD", 20},     {"(I)DCT", 12},
      {"(I)HT 2x2", 2}, {"(I)HT 4x4", 7}, {"MC 4", 11},
      {"IPred HDC", 4}, {"IPred VDC", 3}, {"LF_BS4", 5},
  };
  for (const auto& [name, count] : expected) {
    const auto id = set.find(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_EQ(set.si(*id).molecules.size(), count) << name;
  }
}

TEST(H264SiLibrary, MoleculeSetsAreConsistent) {
  const auto set = build_h264_si_set();
  for (SiId id = 0; id < set.si_count(); ++id) {
    const auto& mols = set.si(id).molecules;
    for (const auto& m : mols) {
      EXPECT_LT(m.latency, set.si(id).software_latency);
      for (const auto& o : mols)
        if (o.atoms != m.atoms && leq(o.atoms, m.atoms)) {
          EXPECT_GT(o.latency, m.latency) << set.si(id).name;
        }
    }
  }
}

TEST(H264SiLibrary, ThirteenSharedAtomTypes) {
  const auto set = build_h264_si_set();
  EXPECT_EQ(set.atom_type_count(), 13u);
  // HadCore is shared between SATD, (I)HT 2x2 and (I)HT 4x4 — sharing is what
  // makes the ∪/∩ lattice across SIs non-trivial.
  const auto had = set.library().find("HadCore");
  ASSERT_TRUE(had.has_value());
  unsigned users = 0;
  for (SiId id = 0; id < set.si_count(); ++id)
    if (set.si(id).graph.occurrences()[*had] > 0) ++users;
  EXPECT_GE(users, 3u);
}

// ---- Candidates: equations (3) and (4) -------------------------------------

TEST(Candidates, SmallerCandidatesContainSelectedAndIntermediates) {
  const auto set = build_h264_si_set();
  const SiId satd = set.find("SATD").value();
  const auto& si = set.si(satd);
  const MoleculeId sel = static_cast<MoleculeId>(si.molecules.size() - 1);
  const std::vector<SiRef> selected{{satd, sel}};
  const auto cands = smaller_candidates(set, selected);
  EXPECT_FALSE(cands.empty());
  // The selected molecule itself is a candidate.
  EXPECT_NE(std::find(cands.begin(), cands.end(), SiRef{satd, sel}), cands.end());
  // Every candidate is <= the selected molecule and belongs to SATD.
  for (const SiRef& c : cands) {
    EXPECT_EQ(c.si, satd);
    EXPECT_TRUE(leq(si.molecule(c.mol).atoms, si.molecule(sel).atoms));
  }
}

TEST(Candidates, DuplicateSelectedSiThrows) {
  const auto set = build_h264_si_set();
  const std::vector<SiRef> selected{{0, 0}, {0, 1}};
  EXPECT_THROW(smaller_candidates(set, selected), std::logic_error);
}

TEST(Candidates, CleaningRemovesAvailableAndSlowCandidates) {
  const auto set = build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  const auto& si = set.si(sad);
  ASSERT_EQ(si.molecules.size(), 3u);
  const std::vector<SiRef> selected{{sad, 2}};
  auto cands = smaller_candidates(set, selected);
  ASSERT_EQ(cands.size(), 3u);

  // With molecule 1 fully available, candidates 0 and 1 die: 0 is slower
  // than the best available, 1 needs no atoms.
  std::vector<Cycles> best(set.si_count(), kMaxCycles);
  best[sad] = si.molecule(1).latency;
  clean_candidates(set, cands, si.molecule(1).atoms, best);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].mol, 2);
}

TEST(Candidates, PaperM4Example) {
  // Recreate the §4.3 example: SI with m1=(1,2), m2=(2,2), m3=(3,3),
  // m4=(1,3); lat(m4) between lat(m2) and lat(m1). After m2 is composed, m4
  // is dead — but with warm start a=(0,3), m4 only needs one atom and lives.
  AtomLibrary lib;
  lib.add({"A1", 2, 100, 400});
  lib.add({"A2", 2, 100, 400});
  SpecialInstructionSet set(std::move(lib));
  // Graph shaped so the enumerated grid includes the four molecules.
  DataPathGraph g(&set.library());
  const auto l1 = g.add_layer(0, 6);
  g.add_layer(1, 6, l1);
  set.add_si("X", std::move(g), Molecule{3, 3}, 200);

  const auto& si = set.si(0);
  auto find_mol = [&](const Molecule& atoms) -> MoleculeId {
    for (MoleculeId m = 0; m < si.molecules.size(); ++m)
      if (si.molecules[m].atoms == atoms) return m;
    return kSoftwareMolecule;
  };
  const MoleculeId m2 = find_mol(Molecule{2, 2});
  const MoleculeId m4 = find_mol(Molecule{1, 3});
  ASSERT_NE(m2, kSoftwareMolecule);
  ASSERT_NE(m4, kSoftwareMolecule);
  ASSERT_GT(si.molecule(m4).latency, si.molecule(m2).latency);

  // m2 composed: m4 does not survive cleaning.
  EXPECT_FALSE(candidate_is_live(set, SiRef{0, m4}, si.molecule(m2).atoms,
                                 si.molecule(m2).latency));
  // Warm start (0,3): m4 needs one atom, m2 needs two — m4 is live while the
  // best latency is still the trap.
  EXPECT_TRUE(candidate_is_live(set, SiRef{0, m4}, Molecule{0, 3}, si.software_latency));
  EXPECT_EQ(missing(Molecule{0, 3}, si.molecule(m4).atoms).determinant(), 1u);
  EXPECT_EQ(missing(Molecule{0, 3}, si.molecule(m2).atoms).determinant(), 2u);
}

}  // namespace
}  // namespace rispp
