// The Atom Container (AC) file: the fixed set of small reconfigurable
// regions, each of which holds at most one atom (§3).
//
// Multi-tenant note (DESIGN §9): under the fabric arbiter each tenant views
// the shared fabric through its own ContainerFile whose *physical* size is
// the whole device but whose *enabled* subset is the tenant's current quota.
// Container ids are stable across quota changes — shrinking a quota disables
// containers (evicting their atoms) instead of renumbering, so in-flight
// loads and LRU bookkeeping never chase moving ids. A solo RTM and the
// Molen and OneChip baselines are the 1-tenant case (the quota is the
// whole device).
#pragma once

#include <optional>
#include <vector>

#include "alg/molecule.h"
#include "base/types.h"

namespace rispp {

enum class ContainerState { kEmpty, kLoading, kReady };

struct AtomContainer {
  ContainerState state = ContainerState::kEmpty;
  AtomTypeId type = 0;        // valid unless kEmpty
  Cycles last_used = 0;       // for LRU eviction among superfluous atoms
  bool enabled = true;        // disabled = outside the owner's current quota
};

class ContainerFile {
 public:
  /// Fully enabled file (the unit tests' fabric).
  ContainerFile(unsigned count, std::size_t atom_type_dimension);
  /// Tenant view: `count` physical slots, the first `enabled_count` enabled.
  ContainerFile(unsigned count, std::size_t atom_type_dimension, unsigned enabled_count);

  /// Physical slot count (stable id space).
  unsigned size() const { return static_cast<unsigned>(containers_.size()); }
  /// Enabled slot count — the owner's current budget. Selection and
  /// scheduling must use this, never size().
  unsigned active() const { return active_; }
  const AtomContainer& container(ContainerId id) const;
  bool enabled(ContainerId id) const { return container(id).enabled; }

  /// Atoms usable by SIs right now (kReady only).
  const Molecule& ready_atoms() const { return ready_; }

  /// Marks a container as the target of a reconfiguration for `type`
  /// (overwriting whatever it held). The caller picked the victim.
  void begin_load(ContainerId id, AtomTypeId type);
  /// Reconfiguration finished; the atom becomes usable.
  void complete_load(ContainerId id);

  /// Removes `id` from the quota, destroying any ready atom it held (the
  /// cross-tenant eviction primitive). Must not be loading. Returns true if
  /// a ready atom was evicted.
  bool disable(ContainerId id);
  /// Returns a disabled container to the quota (it re-enters empty).
  void enable(ContainerId id);

  /// Bumps the LRU stamp of one ready atom of each type in `used` (SI
  /// execution touches its atoms).
  void touch(const Molecule& used, Cycles now);

  /// First enabled empty container, if any.
  std::optional<ContainerId> find_empty() const;
  /// All ready containers holding `type`.
  std::vector<ContainerId> ready_of_type(AtomTypeId type) const;

 private:
  std::vector<AtomContainer> containers_;
  Molecule ready_;  // cached kReady counts per type
  unsigned active_ = 0;
};

}  // namespace rispp
