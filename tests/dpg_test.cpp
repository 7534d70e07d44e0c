// Tests for data-path graphs, the resource-constrained list scheduler and
// the Pareto molecule enumeration.
#include <gtest/gtest.h>

#include "base/prng.h"
#include "dpg/atom_library.h"
#include "dpg/enumerate.h"
#include "dpg/graph.h"
#include "dpg/list_scheduler.h"

namespace rispp {
namespace {

AtomLibrary two_type_library() {
  AtomLibrary lib;
  lib.add({"A", 2, 20, 400});
  lib.add({"B", 3, 30, 500});
  return lib;
}

TEST(AtomLibrary, AddFindAndDuplicates) {
  AtomLibrary lib = two_type_library();
  EXPECT_EQ(lib.size(), 2u);
  EXPECT_EQ(lib.find("A").value(), 0);
  EXPECT_EQ(lib.find("B").value(), 1);
  EXPECT_FALSE(lib.find("C").has_value());
  EXPECT_THROW(lib.add({"A", 1, 1, 1}), std::logic_error);
  EXPECT_EQ(lib.type(1).op_latency, 3u);
}

TEST(DataPathGraph, OccurrencesAndSoftwareCycles) {
  AtomLibrary lib = two_type_library();
  DataPathGraph g(&lib);
  const auto a = g.add_layer(0, 3);
  g.add_layer(1, 2, a);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.occurrences(), (Molecule{3, 2}));
  EXPECT_EQ(g.software_cycles(), 3u * 20 + 2u * 30);
  // Critical path: one A (2) then one B (3).
  EXPECT_EQ(g.critical_path(), 5u);
}

TEST(DataPathGraph, ForwardOnlyPredecessors) {
  AtomLibrary lib = two_type_library();
  DataPathGraph g(&lib);
  const NodeId n0 = g.add_node(0);
  EXPECT_THROW(g.add_node(0, {n0 + 5}), std::logic_error);
}

TEST(ListScheduler, SerializesOnSingleInstance) {
  AtomLibrary lib = two_type_library();
  DataPathGraph g(&lib);
  g.add_layer(0, 4);  // 4 independent A-ops, latency 2 each
  EXPECT_EQ(molecule_latency(g, Molecule{1, 0}), 8u);
  EXPECT_EQ(molecule_latency(g, Molecule{2, 0}), 4u);
  EXPECT_EQ(molecule_latency(g, Molecule{4, 0}), 2u);
}

TEST(ListScheduler, RespectsDependencies) {
  AtomLibrary lib = two_type_library();
  DataPathGraph g(&lib);
  const NodeId a = g.add_node(0);
  const NodeId b = g.add_node(1, {a});
  g.add_node(0, {b});
  // Chain A->B->A: 2+3+2 regardless of instance count.
  EXPECT_EQ(molecule_latency(g, Molecule{3, 3}), 7u);
  EXPECT_EQ(molecule_latency(g, Molecule{1, 1}), 7u);
}

TEST(ListScheduler, MissingInstanceForUsedTypeThrows) {
  AtomLibrary lib = two_type_library();
  DataPathGraph g(&lib);
  g.add_node(1);
  EXPECT_THROW(molecule_latency(g, Molecule{1, 0}), std::logic_error);
}

TEST(ListScheduler, StartTimesAreConsistent) {
  AtomLibrary lib = two_type_library();
  DataPathGraph g(&lib);
  const auto layer1 = g.add_layer(0, 3);
  const auto layer2 = g.add_layer(1, 3, layer1);
  const Molecule instances{2, 1};
  const ListScheduleResult r = list_schedule(g, instances);
  // Every node starts after all predecessors finished.
  for (NodeId id = 0; id < g.node_count(); ++id)
    for (NodeId p : g.node(id).preds)
      EXPECT_GE(r.start[id], r.start[p] + lib.type(g.node(p).type).op_latency);
  // Resource constraint: no more than `instances[t]` overlapping ops.
  for (AtomTypeId t = 0; t < 2; ++t) {
    for (Cycles time = 0; time < r.makespan; ++time) {
      unsigned busy = 0;
      for (NodeId id = 0; id < g.node_count(); ++id) {
        if (g.node(id).type != t) continue;
        const Cycles lat = lib.type(t).op_latency;
        if (r.start[id] <= time && time < r.start[id] + lat) ++busy;
      }
      EXPECT_LE(busy, instances[t]);
    }
  }
  (void)layer2;
}

// Property: latency is monotone non-increasing in the instance vector and
// bounded below by the critical path.
class ListSchedulerMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ListSchedulerMonotonicity, MoreInstancesNeverHurt) {
  Xoshiro256 rng(GetParam());
  AtomLibrary lib;
  const std::size_t types = 2 + rng.bounded(3);
  for (std::size_t t = 0; t < types; ++t)
    lib.add({std::string("T").append(std::to_string(t)), 1 + rng.bounded(4), 10, 100});

  DataPathGraph g(&lib);
  const std::size_t layers = 1 + rng.bounded(4);
  std::vector<NodeId> prev;
  for (std::size_t l = 0; l < layers; ++l) {
    const auto type = static_cast<AtomTypeId>(rng.bounded(types));
    const unsigned width = 1 + static_cast<unsigned>(rng.bounded(6));
    prev = g.add_layer(type, width, prev);
  }

  const Molecule occ = g.occurrences();
  Molecule lo(types), hi(types);
  for (std::size_t t = 0; t < types; ++t) {
    if (occ[t] == 0) continue;
    lo[t] = static_cast<AtomCount>(1 + rng.bounded(occ[t]));
    hi[t] = static_cast<AtomCount>(lo[t] + rng.bounded(occ[t] - lo[t] + 1));
  }
  const Cycles lat_lo = molecule_latency(g, lo);
  const Cycles lat_hi = molecule_latency(g, hi);
  EXPECT_LE(lat_hi, lat_lo) << "lo=" << lo.to_string() << " hi=" << hi.to_string();
  EXPECT_GE(lat_hi, g.critical_path());
  EXPECT_LE(lat_lo, g.software_cycles());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ListSchedulerMonotonicity,
                         ::testing::Range<std::uint64_t>(1, 49));

// Graham-style quality bound: a list schedule never exceeds the critical
// path plus the per-type serialization work sum(ceil(work_t / m_t)) — the
// classic argument that at every cycle either the critical path advances or
// some needed type has all instances busy.
class ListSchedulerQualityBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ListSchedulerQualityBound, WithinCriticalPathPlusTypeWork) {
  Xoshiro256 rng(GetParam() * 7919);
  AtomLibrary lib;
  const std::size_t types = 1 + rng.bounded(4);
  for (std::size_t t = 0; t < types; ++t)
    lib.add({std::string("Q").append(std::to_string(t)), 1 + rng.bounded(5), 10, 100});

  DataPathGraph g(&lib);
  // Random layered DAG with random cross-layer edges.
  std::vector<NodeId> prev;
  const std::size_t layers = 1 + rng.bounded(5);
  for (std::size_t l = 0; l < layers; ++l) {
    const auto type = static_cast<AtomTypeId>(rng.bounded(types));
    const unsigned width = 1 + static_cast<unsigned>(rng.bounded(5));
    std::vector<NodeId> layer;
    for (unsigned i = 0; i < width; ++i) {
      std::vector<NodeId> preds;
      for (NodeId p : prev)
        if (rng.bounded(2) == 0) preds.push_back(p);
      layer.push_back(g.add_node(type, preds));
    }
    prev = layer;
  }

  const Molecule occ = g.occurrences();
  Molecule instances(types);
  for (std::size_t t = 0; t < types; ++t)
    if (occ[t] > 0) instances[t] = static_cast<AtomCount>(1 + rng.bounded(occ[t]));

  const Cycles makespan = molecule_latency(g, instances);
  Cycles bound = g.critical_path();
  for (std::size_t t = 0; t < types; ++t) {
    if (occ[t] == 0) continue;
    const Cycles work = static_cast<Cycles>(occ[t]) * lib.type(t).op_latency;
    bound += (work + instances[t] - 1) / instances[t];
  }
  EXPECT_LE(makespan, bound);
  EXPECT_GE(makespan, g.critical_path());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ListSchedulerQualityBound,
                         ::testing::Range<std::uint64_t>(1, 65));

TEST(Enumerate, SingleTypeGridIsFullyKept) {
  AtomLibrary lib = two_type_library();
  DataPathGraph g(&lib);
  g.add_layer(0, 6);
  EnumerationOptions opt;
  opt.instance_caps = Molecule{3, 0};
  const auto mols = enumerate_molecules(g, opt);
  // ceil(6/1)=6, ceil(6/2)=3, ceil(6/3)=2 ops * 2 cycles: all distinct.
  ASSERT_EQ(mols.size(), 3u);
  EXPECT_EQ(mols[0].atoms, (Molecule{1, 0}));
  EXPECT_EQ(mols[0].latency, 12u);
  EXPECT_EQ(mols[2].atoms, (Molecule{3, 0}));
  EXPECT_EQ(mols[2].latency, 4u);
}

TEST(Enumerate, DominatedCandidatesArePruned) {
  AtomLibrary lib = two_type_library();
  DataPathGraph g(&lib);
  // 2 independent A ops: 3 instances can never beat 2.
  g.add_layer(0, 2);
  EnumerationOptions opt;
  opt.instance_caps = Molecule{3, 0};
  const auto mols = enumerate_molecules(g, opt);
  ASSERT_EQ(mols.size(), 2u);
  EXPECT_EQ(mols[1].atoms, (Molecule{2, 0}));
}

TEST(Enumerate, ParetoConsistencyProperty) {
  // No kept molecule may have a strictly smaller sibling that is as fast.
  AtomLibrary lib = two_type_library();
  DataPathGraph g(&lib);
  const auto a = g.add_layer(0, 5);
  g.add_layer(1, 4, a);
  EnumerationOptions opt;
  opt.instance_caps = Molecule{4, 4};
  const auto mols = enumerate_molecules(g, opt);
  EXPECT_GE(mols.size(), 2u);
  for (const auto& m : mols)
    for (const auto& o : mols)
      if (o.atoms != m.atoms && leq(o.atoms, m.atoms)) {
        EXPECT_GT(o.latency, m.latency);
      }
}

TEST(Enumerate, HardwareMoleculeNeedsEveryUsedType) {
  AtomLibrary lib = two_type_library();
  DataPathGraph g(&lib);
  const auto a = g.add_layer(0, 2);
  g.add_layer(1, 2, a);
  EnumerationOptions opt;
  opt.instance_caps = Molecule{2, 2};
  for (const auto& m : enumerate_molecules(g, opt)) {
    EXPECT_GE(m.atoms[0], 1);
    EXPECT_GE(m.atoms[1], 1);
  }
}

}  // namespace
}  // namespace rispp
