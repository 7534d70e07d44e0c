// Special Instructions and the platform's SI set.
//
// An SI (e.g. SATD in the H.264 Motion Estimation hot spot) owns a data-path
// graph and a list of Molecules — alternative hardware implementations that
// trade atom count against latency (Table 1 of the paper). The slowest
// implementation is always the trap onto the base instruction set
// ("software molecule", MoleculeId kSoftwareMolecule), triggered
// automatically when the required atoms are not loaded (§3).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alg/molecule.h"
#include "base/check.h"
#include "base/types.h"
#include "dpg/atom_library.h"
#include "dpg/enumerate.h"
#include "dpg/graph.h"

namespace rispp {

class MakespanMemo;  // dpg/makespan_memo.h

struct SpecialInstruction {
  SiId id = 0;
  std::string name;
  DataPathGraph graph;
  /// Hardware molecules, sorted by ascending determinant then latency.
  /// Consistency invariant (checked on construction): no molecule has a
  /// strictly smaller sibling with equal-or-better latency.
  std::vector<MoleculeImpl> molecules;
  /// Molecule ids by ascending latency, ties by ascending id: the walk order
  /// of getFastestAvailableMolecule (the first fitting entry is the answer).
  std::vector<MoleculeId> latency_order;
  /// Trap execution with base instructions (exception entry + emulation).
  Cycles software_latency = 0;

  const MoleculeImpl& molecule(MoleculeId m) const {
    RISPP_CHECK(m < molecules.size());
    return molecules[m];
  }
  Cycles latency(MoleculeId m) const {  // kSoftwareMolecule -> software_latency
    if (m == kSoftwareMolecule) return software_latency;
    return molecule(m).latency;
  }
};

/// A concrete implementation choice: one SI plus one of its molecules.
struct SiRef {
  SiId si = 0;
  MoleculeId mol = 0;
  bool operator==(const SiRef&) const = default;
};

class SpecialInstructionSet {
 public:
  explicit SpecialInstructionSet(AtomLibrary library);

  // The library lives at a stable address for the set's lifetime, so
  // DataPathGraphs may point at it.
  SpecialInstructionSet(const SpecialInstructionSet&) = delete;
  SpecialInstructionSet& operator=(const SpecialInstructionSet&) = delete;
  /// Carries the memoized fingerprint along.
  SpecialInstructionSet(SpecialInstructionSet&& other) noexcept
      : library_(std::move(other.library_)),
        sis_(std::move(other.sis_)),
        sis_using_(std::move(other.sis_using_)),
        fingerprint_(other.fingerprint_.load(std::memory_order_relaxed)) {}

  const AtomLibrary& library() const { return *library_; }
  std::size_t atom_type_count() const { return library_->size(); }

  /// Registers an SI. Its molecules are enumerated from the graph under
  /// `instance_caps` and — like the paper's manually developed molecule
  /// sets — optionally thinned to `molecule_target` representatives
  /// (smallest and fastest always kept). `min_determinant` drops hardware
  /// molecules below that atom count first: heavyweight SIs (SATD, MC, DCT)
  /// have no tiny implementations — their pipelines only pay off once a
  /// minimum stage balance exists. `trap_overhead` models exception
  /// entry/exit on top of the emulated graph body. `makespan_memo` (optional)
  /// routes the enumeration's list-schedule makespans through a memo — the
  /// DSE engine passes the process-wide one so candidate platforms sharing
  /// graph structure never reschedule; results are bit-identical either way.
  SiId add_si(const std::string& name, DataPathGraph graph, const Molecule& instance_caps,
              Cycles trap_overhead, unsigned molecule_target = 0,
              unsigned min_determinant = 0, MakespanMemo* makespan_memo = nullptr);

  const SpecialInstruction& si(SiId id) const {
    RISPP_CHECK(id < sis_.size());
    return sis_[id];
  }
  std::size_t si_count() const { return sis_.size(); }
  std::optional<SiId> find(const std::string& name) const;

  Cycles latency(const SiRef& ref) const { return si(ref.si).latency(ref.mol); }

  /// getFastestAvailableMolecule(a): lowest-latency molecule of `si` whose
  /// atoms are all within `available` (lowest id on equal latency); software
  /// molecule if none is. Walks the SI's latency_order and stops at the first
  /// fit, so a fully loaded SI costs one molecule compare. A molecule whose
  /// cached determinant exceeds |available| cannot fit and costs one integer
  /// compare; the rest take one lane-parallel leq each.
  MoleculeId fastest_available(SiId si, const Molecule& available) const;
  Cycles fastest_available_latency(SiId si, const Molecule& available) const;

  /// SIs (ascending id) with at least one molecule needing atom type `type`:
  /// the only SIs whose fastest_available can change when that type's
  /// available count moves.
  std::span<const SiId> sis_using(AtomTypeId type) const;

 private:
  friend std::uint64_t fingerprint(const SpecialInstructionSet& set);

  std::unique_ptr<AtomLibrary> library_;
  std::vector<SpecialInstruction> sis_;
  std::vector<std::vector<SiId>> sis_using_;  // per atom type
  /// fingerprint(*this) once computed, else 0 (a fingerprint of 0 is
  /// recomputed each time); add_si resets it. Relaxed: concurrent first
  /// reads compute and store the same value.
  mutable std::atomic<std::uint64_t> fingerprint_{0};
};

/// Order-sensitive 64-bit digest of the set's observable contents: atom
/// types (name, latencies, slices), SI names, molecule tables (atom vectors
/// + latencies) and software latencies. Any change that could alter a
/// recorded workload trace changes the fingerprint — cache keys (e.g. the
/// bench trace cache) mix it in so a stale trace is never replayed against
/// an edited library. Memoized in the set, so repeated calls cost one
/// relaxed atomic load.
std::uint64_t fingerprint(const SpecialInstructionSet& set);

/// FNV-1a accumulator the fingerprint is built from; exposed so callers can
/// keep mixing workload-config fields into the same digest.
std::uint64_t fingerprint_mix(std::uint64_t hash, std::uint64_t value);

}  // namespace rispp
