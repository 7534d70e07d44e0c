// Tests for the §4.1 Molecule assembly model, including property-based
// checks of the algebraic laws the paper states: (ℕⁿ, ∪) and (ℕⁿ, ∩) are
// Abelian semi-groups with neutral elements, ≤ is a partial order, and the
// structure is a complete lattice.
#include "alg/molecule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/prng.h"

namespace rispp {
namespace {

Molecule random_molecule(Xoshiro256& rng, std::size_t dim, AtomCount max_count) {
  Molecule m(dim);
  for (std::size_t i = 0; i < dim; ++i)
    m[i] = static_cast<AtomCount>(rng.bounded(max_count + 1));
  return m;
}

TEST(Molecule, ZeroConstructionAndAccess) {
  Molecule m(4);
  EXPECT_EQ(m.dimension(), 4u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.determinant(), 0u);
  m[2] = 5;
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.determinant(), 5u);
  EXPECT_EQ(m.type_count(), 1u);
}

TEST(Molecule, InitializerList) {
  Molecule m{1, 0, 3};
  EXPECT_EQ(m.dimension(), 3u);
  EXPECT_EQ(m.determinant(), 4u);
  EXPECT_EQ(m.type_count(), 2u);
  EXPECT_EQ(m.to_string(), "(1,0,3)");
}

TEST(Molecule, UnitMolecules) {
  const Molecule u1 = Molecule::unit(3, 0);
  EXPECT_EQ(u1, (Molecule{1, 0, 0}));
  const Molecule u3 = Molecule::unit(3, 2);
  EXPECT_EQ(u3, (Molecule{0, 0, 1}));
  EXPECT_EQ(u3.determinant(), 1u);
}

TEST(Molecule, JoinIsComponentwiseMax) {
  EXPECT_EQ(join({1, 4, 0}, {2, 2, 2}), (Molecule{2, 4, 2}));
}

TEST(Molecule, MeetIsComponentwiseMin) {
  EXPECT_EQ(meet({1, 4, 0}, {2, 2, 2}), (Molecule{1, 2, 0}));
}

TEST(Molecule, PaperExampleOrdering) {
  // §4.3: m2=(2,2) and m4=(1,3) are incomparable.
  const Molecule m2{2, 2}, m4{1, 3};
  EXPECT_FALSE(leq(m2, m4));
  EXPECT_FALSE(leq(m4, m2));
  EXPECT_TRUE(leq(m2, join(m2, m4)));
  EXPECT_TRUE(leq(m4, join(m2, m4)));
  EXPECT_EQ(join(m2, m4), (Molecule{2, 3}));
  EXPECT_EQ(meet(m2, m4), (Molecule{1, 2}));
}

TEST(Molecule, MissingOperator) {
  // a ⊖ m: atoms still to load for m when a is available (paper's example:
  // m4=(1,3) is cheap for a=(0,3)).
  const Molecule a{0, 3};
  EXPECT_EQ(missing(a, {1, 3}), (Molecule{1, 0}));
  EXPECT_EQ(missing(a, {2, 2}), (Molecule{2, 0}));
  EXPECT_EQ(missing(a, {0, 0}), (Molecule{0, 0}));
  EXPECT_EQ(missing(Molecule{5, 5}, {2, 2}), (Molecule{0, 0}));
}

TEST(Molecule, SupAndInfOverSets) {
  const std::vector<Molecule> set{{1, 2, 0}, {0, 3, 1}, {2, 0, 0}};
  EXPECT_EQ(sup(set, 3), (Molecule{2, 3, 1}));
  EXPECT_EQ(inf(set), (Molecule{0, 0, 0}));
  EXPECT_EQ(sup(std::vector<Molecule>{}, 3), Molecule(3));
}

TEST(Molecule, SupremumBoundsEveryElement) {
  const std::vector<Molecule> set{{1, 7}, {4, 2}, {3, 3}};
  const Molecule s = sup(set, 2);
  for (const auto& m : set) EXPECT_TRUE(leq(m, s));
}

TEST(Molecule, UnitDecompositionMatchesCounts) {
  const Molecule m{2, 0, 1};
  const auto units = unit_decomposition(m);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0], 0);
  EXPECT_EQ(units[1], 0);
  EXPECT_EQ(units[2], 2);
}

TEST(Molecule, DimensionMismatchThrows) {
  EXPECT_THROW(join(Molecule{1}, Molecule{1, 2}), std::logic_error);
  EXPECT_THROW((void)leq(Molecule{1}, Molecule{1, 2}), std::logic_error);

  // Every lattice op names both dimensions, inline against spilled too.
  const Molecule a(3), b(2 * Molecule::kInlineCapacity);
  Molecule out;
  const std::string needle = "dimension mismatch: 3 vs " + std::to_string(b.dimension());
  auto expect_mismatch = [&](auto&& op, const char* name) {
    try {
      op();
      ADD_FAILURE() << name << " did not throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << name << ": " << e.what();
    }
  };
  expect_mismatch([&] { out = a; join_into(out, b); }, "join_into");
  expect_mismatch([&] { out = a; meet_into(out, b); }, "meet_into");
  expect_mismatch([&] { (void)leq(a, b); }, "leq");
  expect_mismatch([&] { missing_into(out, a, b); }, "missing_into");
  expect_mismatch([&] { (void)missing_determinant(a, b); }, "missing_determinant");
  expect_mismatch([&] { (void)join_determinant(a, b); }, "join_determinant");

  // Element writes stay below dimension(), where the lanes are live.
  Molecule m(3);
  EXPECT_THROW(m[3] = 1, std::logic_error);
  EXPECT_EQ(m.determinant(), 0u);
}

TEST(Molecule, InfOfEmptySetThrows) {
  EXPECT_THROW(inf(std::vector<Molecule>{}), std::logic_error);
}

// ---- Property-based lattice laws ----------------------------------------

class MoleculeLatticeLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MoleculeLatticeLaws, SemigroupAndLatticeProperties) {
  Xoshiro256 rng(GetParam());
  const std::size_t dim = 1 + rng.bounded(8);
  const Molecule a = random_molecule(rng, dim, 6);
  const Molecule b = random_molecule(rng, dim, 6);
  const Molecule c = random_molecule(rng, dim, 6);
  const Molecule zero(dim);

  // Commutativity and associativity of ∪ and ∩ (Abelian semi-groups).
  EXPECT_EQ(join(a, b), join(b, a));
  EXPECT_EQ(meet(a, b), meet(b, a));
  EXPECT_EQ(join(a, join(b, c)), join(join(a, b), c));
  EXPECT_EQ(meet(a, meet(b, c)), meet(meet(a, b), c));

  // Neutral element of ∪ is (0,...,0).
  EXPECT_EQ(join(a, zero), a);

  // Idempotence and absorption (lattice laws).
  EXPECT_EQ(join(a, a), a);
  EXPECT_EQ(meet(a, a), a);
  EXPECT_EQ(join(a, meet(a, b)), a);
  EXPECT_EQ(meet(a, join(a, b)), a);

  // ≤ is reflexive; antisymmetry; transitivity via join-characterization.
  EXPECT_TRUE(leq(a, a));
  if (leq(a, b) && leq(b, a)) {
    EXPECT_EQ(a, b);
  }
  EXPECT_TRUE(leq(meet(a, b), a));
  EXPECT_TRUE(leq(a, join(a, b)));
  // leq(a,b) iff join(a,b)==b iff meet(a,b)==a.
  EXPECT_EQ(leq(a, b), join(a, b) == b);
  EXPECT_EQ(leq(a, b), meet(a, b) == a);

  // ⊖ law: loading exactly the missing atoms on top of a yields a ∪ b —
  // componentwise a + (a ⊖ b) == max(a, b). This is why HEF line 26/27 can
  // push the unit decomposition of a ⊖ m and then update a ← a ∪ m.
  const Molecule delta = missing(a, b);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_EQ(a[i] + delta[i], join(a, b)[i]);
    EXPECT_GE(a[i] + delta[i], b[i]);
  }
  EXPECT_EQ(join(a, b).determinant(), a.determinant() + delta.determinant());

  // Determinant is monotone along the order.
  EXPECT_LE(meet(a, b).determinant(), a.determinant());
  EXPECT_GE(join(a, b).determinant(), a.determinant());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MoleculeLatticeLaws,
                         ::testing::Range<std::uint64_t>(1, 65));

// ---- Allocation-free in-place operations and the determinant cache -------

class MoleculeInPlaceOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MoleculeInPlaceOps, InPlaceOpsMatchAllocatingOnes) {
  Xoshiro256 rng(GetParam());
  // Span both storage modes: dims beyond kInlineCapacity use the heap spill.
  const std::size_t dim = 1 + rng.bounded(2 * Molecule::kInlineCapacity);
  const Molecule a = random_molecule(rng, dim, 6);
  const Molecule b = random_molecule(rng, dim, 6);

  Molecule acc = a;
  join_into(acc, b);
  EXPECT_EQ(acc, join(a, b));
  EXPECT_EQ(acc.determinant(), join(a, b).determinant());

  acc = a;
  meet_into(acc, b);
  EXPECT_EQ(acc, meet(a, b));

  Molecule out;
  missing_into(out, a, b);
  EXPECT_EQ(out, missing(a, b));
  EXPECT_EQ(out.determinant(), missing(a, b).determinant());
  EXPECT_EQ(missing_determinant(a, b), missing(a, b).determinant());
  EXPECT_EQ(join_determinant(a, b), join(a, b).determinant());

  // missing_into must tolerate aliasing with either input.
  Molecule alias = a;
  missing_into(alias, alias, b);
  EXPECT_EQ(alias, missing(a, b));
  alias = b;
  missing_into(alias, a, alias);
  EXPECT_EQ(alias, missing(a, b));

  // append_unit_decomposition appends the same type sequence that
  // unit_decomposition returns.
  std::vector<AtomTypeId> appended{42};
  append_unit_decomposition(a, appended);
  const auto units = unit_decomposition(a);
  ASSERT_EQ(appended.size(), units.size() + 1);
  EXPECT_EQ(appended.front(), 42u);
  for (std::size_t i = 0; i < units.size(); ++i) EXPECT_EQ(appended[i + 1], units[i]);
}

TEST_P(MoleculeInPlaceOps, CachedDeterminantSurvivesEveryMutationPath) {
  Xoshiro256 rng(GetParam());
  const std::size_t dim = 1 + rng.bounded(2 * Molecule::kInlineCapacity);
  auto fresh_sum = [](const Molecule& m) {
    unsigned s = 0;
    for (std::size_t i = 0; i < m.dimension(); ++i) s += m.counts()[i];
    return s;
  };

  Molecule m = random_molecule(rng, dim, 6);
  EXPECT_EQ(m.determinant(), fresh_sum(m));

  // Mutation through operator[] must invalidate the cache.
  m.determinant();  // prime the cache
  m[rng.bounded(dim)] = static_cast<AtomCount>(rng.bounded(9));
  EXPECT_EQ(m.determinant(), fresh_sum(m));

  // Reuse of the same storage with new contents.
  m.determinant();
  m.assign_zero(dim);
  EXPECT_EQ(m.determinant(), 0u);
  const Molecule src = random_molecule(rng, dim, 6);
  m.assign(src.counts());
  EXPECT_EQ(m.determinant(), fresh_sum(src));

  // In-place lattice ops.
  Molecule other = random_molecule(rng, dim, 6);
  m.determinant();
  join_into(m, other);
  EXPECT_EQ(m.determinant(), fresh_sum(m));
  m.determinant();
  meet_into(m, other);
  EXPECT_EQ(m.determinant(), fresh_sum(m));

  // Copies and moves carry a consistent cache state with them.
  Molecule copy = m;
  copy.determinant();
  copy[0] = static_cast<AtomCount>(copy.counts()[0] + 1);
  EXPECT_EQ(copy.determinant(), fresh_sum(copy));
  EXPECT_EQ(m.determinant(), fresh_sum(m));  // the original is untouched

  // operator== ignores the cache: equal contents compare equal regardless
  // of which instance has a primed cache.
  Molecule x = random_molecule(rng, dim, 6);
  Molecule y = x;
  x.determinant();           // x primed
  y[0] = y.counts()[0];      // y invalidated, same contents
  EXPECT_EQ(x, y);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MoleculeInPlaceOps,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---- Lane layout: every op against a plain vector model ------------------
//
// Inline molecules run their ops over all kInlineCapacity lanes and rely on
// the lanes at and above dimension() being zero. A walk of random writes —
// shrinking through assign_zero, assign and missing_into (aliased too),
// copies and moves between spilled and inline molecules, element writes —
// checks after every step that each op still equals the model's.

using Model = std::vector<std::uint16_t>;

Model model_join(const Model& a, const Model& b) {
  Model out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = std::max(a[i], b[i]);
  return out;
}

Model model_meet(const Model& a, const Model& b) {
  Model out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = std::min(a[i], b[i]);
  return out;
}

Model model_missing(const Model& have, const Model& want) {
  Model out(have.size());
  for (std::size_t i = 0; i < have.size(); ++i)
    out[i] = want[i] > have[i] ? static_cast<std::uint16_t>(want[i] - have[i]) : 0;
  return out;
}

unsigned model_sum(const Model& m) {
  unsigned sum = 0;
  for (const std::uint16_t c : m) sum += c;
  return sum;
}

bool model_leq(const Model& a, const Model& b) {
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] > b[i]) return false;
  return true;
}

/// A count over the whole uint16_t range, the extremes often.
AtomCount random_count(Xoshiro256& rng) {
  switch (rng.bounded(4)) {
    case 0:
      return 0;
    case 1:
      return 0xffff;
    default:
      return static_cast<AtomCount>(rng.bounded(0x10000));
  }
}

Model random_model(Xoshiro256& rng, std::size_t dim) {
  Model m(dim);
  for (auto& c : m) c = random_count(rng);
  return m;
}

void expect_holds(const Molecule& m, const Model& model) {
  ASSERT_EQ(m.dimension(), model.size());
  EXPECT_EQ(Model(m.counts().begin(), m.counts().end()), model);
  EXPECT_EQ(m.determinant(), model_sum(model));
  EXPECT_EQ(m.empty(), model_sum(model) == 0);
  EXPECT_EQ(m, Molecule(model));
}

/// Every binary op of `a` and `b` (same dimension) against the model's.
void expect_ops_match(const Molecule& a, const Model& ma, const Molecule& b, const Model& mb) {
  EXPECT_EQ(join_determinant(a, b), model_sum(model_join(ma, mb)));
  EXPECT_EQ(missing_determinant(a, b), model_sum(model_missing(ma, mb)));
  EXPECT_EQ(leq(a, b), model_leq(ma, mb));
  expect_holds(join(a, b), model_join(ma, mb));
  expect_holds(meet(a, b), model_meet(ma, mb));
  expect_holds(missing(a, b), model_missing(ma, mb));
}

class MoleculeLanes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MoleculeLanes, EveryOpMatchesAVectorModelAcrossShrinksCopiesAndMoves) {
  Xoshiro256 rng(GetParam());
  constexpr std::size_t kCap = Molecule::kInlineCapacity;
  // A few dimensions per seed, from 1 to 2·kInlineCapacity: one inline, one
  // spilled, one anywhere, so molecules shrink, grow and cross the spill.
  const std::size_t dims[] = {1 + rng.bounded(kCap), kCap + 1 + rng.bounded(kCap),
                              1 + rng.bounded(2 * kCap)};
  auto random_dim = [&] { return dims[rng.bounded(3)]; };

  std::vector<Molecule> slots;
  std::vector<Model> models;
  for (int i = 0; i < 4; ++i) {
    models.push_back(random_model(rng, random_dim()));
    slots.emplace_back(models.back());
  }
  // A slot with the dimension of slot `j`: `j` itself or another.
  auto partner_of = [&](std::size_t j) {
    std::vector<std::size_t> same;
    for (std::size_t k = 0; k < slots.size(); ++k)
      if (slots[k].dimension() == slots[j].dimension()) same.push_back(k);
    return same[rng.bounded(same.size())];
  };

  for (int step = 0; step < 300; ++step) {
    const std::size_t i = rng.bounded(slots.size());
    const std::size_t j = rng.bounded(slots.size());
    switch (rng.bounded(8)) {
      case 0: {
        const std::size_t dim = random_dim();
        slots[i].assign_zero(dim);
        models[i].assign(dim, 0);
        break;
      }
      case 1: {
        models[i] = random_model(rng, random_dim());
        slots[i].assign(models[i]);
        break;
      }
      case 2: {  // out may alias either operand
        const std::size_t k = partner_of(j);
        models[i] = model_missing(models[j], models[k]);
        missing_into(slots[i], slots[j], slots[k]);
        break;
      }
      case 3: {
        const std::size_t k = partner_of(i);
        models[i] = model_join(models[i], models[k]);
        join_into(slots[i], slots[k]);
        break;
      }
      case 4: {
        const std::size_t k = partner_of(i);
        models[i] = model_meet(models[i], models[k]);
        meet_into(slots[i], slots[k]);
        break;
      }
      case 5:
        slots[i] = slots[j];
        models[i] = models[j];
        break;
      case 6: {
        Molecule moved(slots[j]);
        slots[i] = std::move(moved);
        models[i] = models[j];
        break;
      }
      default: {
        if (models[i].empty()) break;
        const std::size_t t = rng.bounded(models[i].size());
        models[i][t] = random_count(rng);
        slots[i][t] = models[i][t];
        break;
      }
    }
    SCOPED_TRACE(step);
    for (std::size_t a = 0; a < slots.size(); ++a) {
      expect_holds(slots[a], models[a]);
      Molecule copy(slots[a]);
      expect_holds(copy, models[a]);
      const Molecule moved(std::move(copy));
      expect_holds(moved, models[a]);
      for (std::size_t b = 0; b < slots.size(); ++b)
        if (slots[b].dimension() == slots[a].dimension())
          expect_ops_match(slots[a], models[a], slots[b], models[b]);
    }
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MoleculeLanes, ::testing::Range<std::uint64_t>(1, 17));

TEST(MoleculeLanes, ShrinkingWritesLeaveNoCountBehind) {
  // Full lanes, then each writer shrinks the molecule to 3 types.
  const Model full(Molecule::kInlineCapacity, 7);
  const Molecule have{1, 2, 3}, want{3, 2, 1};
  const Model expected_missing{2, 0, 0};

  Molecule m{full};
  m.assign_zero(3);
  expect_holds(m, Model(3, 0));
  EXPECT_EQ(join_determinant(m, want), 6u);

  m.assign(full);
  m.assign(have.counts());
  expect_holds(m, Model{1, 2, 3});
  EXPECT_TRUE(leq(m, have));

  m.assign(full);
  missing_into(m, have, want);
  expect_holds(m, expected_missing);
  EXPECT_EQ(missing_determinant(Molecule(3), m), 2u);

  // Spilled to inline, through every writer.
  const Model spilled(2 * Molecule::kInlineCapacity, 9);
  for (int writer = 0; writer < 4; ++writer) {
    Molecule s{spilled};
    switch (writer) {
      case 0:
        s.assign_zero(3);
        break;
      case 1:
        s.assign(Model{0, 0, 0});
        break;
      case 2:
        missing_into(s, have, have);
        break;
      default:
        s = Molecule(3);
        break;
    }
    SCOPED_TRACE(writer);
    expect_holds(s, Model(3, 0));
    EXPECT_TRUE(leq(s, Molecule(3)));
    EXPECT_EQ(join_determinant(s, s), 0u);
  }
}

}  // namespace
}  // namespace rispp
