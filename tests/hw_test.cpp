// Tests for the hardware models: Atom Containers, bitstream/reconfiguration
// timing and eviction (the single reconfiguration port is the fabric
// arbiter's, tests/multitenant_test.cpp).
#include <gtest/gtest.h>

#include "hw/atom_container.h"
#include "hw/bitstream.h"
#include "hw/eviction.h"
#include "isa/h264_si_library.h"

namespace rispp {
namespace {

TEST(Bitstream, AverageReconfigurationMatchesPaper) {
  // §5: 874.03 us average atom reconfiguration via 66 MB/s SelectMap/ICAP.
  const auto set = h264sis::build_h264_si_set();
  BitstreamModel model;
  const double avg_us = model.average_reconfig_us(set.library());
  EXPECT_GT(avg_us, 850.0);
  EXPECT_LT(avg_us, 900.0);
}

TEST(Bitstream, ReconfigCyclesScaleWithSlices) {
  BitstreamModel model;
  AtomType small{"s", 1, 1, 200};
  AtomType large{"l", 1, 1, 600};
  EXPECT_LT(model.reconfig_cycles(small), model.reconfig_cycles(large));
  EXPECT_GE(model.reconfig_cycles(small), model.setup_cycles);
}

TEST(ContainerFile, LoadLifecycle) {
  ContainerFile file(3, 4);
  EXPECT_EQ(file.ready_atoms().determinant(), 0u);
  ASSERT_TRUE(file.find_empty().has_value());

  file.begin_load(0, 2);
  EXPECT_EQ(file.container(0).state, ContainerState::kLoading);
  EXPECT_EQ(file.ready_atoms()[2], 0);
  file.complete_load(0);
  EXPECT_EQ(file.container(0).state, ContainerState::kReady);
  EXPECT_EQ(file.ready_atoms()[2], 1);
  EXPECT_EQ(file.ready_of_type(2).size(), 1u);
}

TEST(ContainerFile, OverwritingReadyAtomRemovesItImmediately) {
  ContainerFile file(1, 4);
  file.begin_load(0, 1);
  file.complete_load(0);
  ASSERT_EQ(file.ready_atoms()[1], 1);
  file.begin_load(0, 3);  // reconfigure over the old atom
  EXPECT_EQ(file.ready_atoms()[1], 0);
  EXPECT_EQ(file.ready_atoms()[3], 0);  // not ready yet
  file.complete_load(0);
  EXPECT_EQ(file.ready_atoms()[3], 1);
}

TEST(ContainerFile, DoubleLoadOnSameContainerRejected) {
  ContainerFile file(2, 2);
  file.begin_load(0, 0);
  EXPECT_THROW(file.begin_load(0, 1), std::logic_error);
  EXPECT_THROW(file.complete_load(1), std::logic_error);
}

TEST(Eviction, PrefersEmptyContainers) {
  ContainerFile file(2, 3);
  file.begin_load(0, 1);
  file.complete_load(0);
  const std::vector<Cycles> lru(3, 0);
  const Molecule demand{0, 0, 1};
  const auto victim = pick_victim(file, demand, Molecule(3), lru);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 1);  // the empty one, not the ready atom
}

TEST(Eviction, PinsDemandedAtoms) {
  ContainerFile file(2, 3);
  file.begin_load(0, 1);
  file.complete_load(0);
  file.begin_load(1, 2);
  file.complete_load(1);
  const std::vector<Cycles> lru(3, 0);
  // Both atoms demanded: nothing evictable.
  EXPECT_FALSE(pick_victim(file, Molecule{0, 1, 1}, Molecule(3), lru).has_value());
  // Type 2 not demanded: its container is the victim.
  const auto victim = pick_victim(file, Molecule{0, 1, 0}, Molecule(3), lru);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(file.container(*victim).type, 2);
}

TEST(Eviction, EvictsOverProvisionedTypeByLru) {
  ContainerFile file(3, 2);
  for (ContainerId id = 0; id < 3; ++id) {
    file.begin_load(id, 0);
    file.complete_load(id);
  }
  // Demand wants only one type-0 atom; two are superfluous.
  std::vector<Cycles> lru{50, 0};
  const auto victim = pick_victim(file, Molecule{1, 0}, Molecule(2), lru);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(file.container(*victim).type, 0);
}

TEST(Eviction, UnneededTypeBeatsRecentlyUsedNeeded) {
  ContainerFile file(2, 2);
  file.begin_load(0, 0);
  file.complete_load(0);
  file.begin_load(1, 1);
  file.complete_load(1);
  // Demand: one of type 0 (so a second type-0 would be over-provisioned);
  // type 1 not demanded at all -> container 1 is the victim even though its
  // type was used more recently.
  std::vector<Cycles> lru{0, 100};
  const auto victim = pick_victim(file, Molecule{1, 2}, Molecule(2), lru);
  ASSERT_FALSE(victim.has_value());  // both pinned: type1 demand=2 > ready
  const auto victim2 = pick_victim(file, Molecule{1, 0}, Molecule(2), lru);
  ASSERT_TRUE(victim2.has_value());
  EXPECT_EQ(*victim2, 1);
}

TEST(Eviction, LoadingContainersAreNeverVictims) {
  ContainerFile file(1, 2);
  file.begin_load(0, 0);
  const std::vector<Cycles> lru(2, 0);
  EXPECT_FALSE(pick_victim(file, Molecule{0, 0}, Molecule(2), lru).has_value());
}

TEST(Eviction, SoftDemandProtectsOtherHotSpotsAtoms) {
  // Two ready atoms, neither hard-demanded; type 1 is soft-demanded (another
  // hot spot's selection wants it resident) -> type 0 is the victim even
  // though type 1 is the least recently used.
  ContainerFile file(2, 2);
  file.begin_load(0, 0);
  file.complete_load(0);
  file.begin_load(1, 1);
  file.complete_load(1);
  std::vector<Cycles> lru{100, 0};
  const auto victim = pick_victim(file, Molecule(2), Molecule{0, 1}, lru);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(file.container(*victim).type, 0);
  // Soft demand never blocks progress: with everything soft-pinned the LRU
  // type still gets evicted.
  const auto victim2 = pick_victim(file, Molecule(2), Molecule{1, 1}, lru);
  ASSERT_TRUE(victim2.has_value());
  EXPECT_EQ(file.container(*victim2).type, 1);  // LRU among soft-pinned
}

}  // namespace
}  // namespace rispp
