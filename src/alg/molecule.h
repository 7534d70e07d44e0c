// The Molecule assembly model of DATE'08 §4.1.
//
// A Molecule is a vector m ∈ ℕⁿ where n is the number of atom *types* in the
// platform and m_i is the desired number of instances of atom type i. The
// structure (ℕⁿ, ∪, ∩, ≤) is a complete lattice:
//
//   (m ∪ o)_i = max(m_i, o_i)   -- Meta-Molecule covering both (join)
//   (m ∩ o)_i = min(m_i, o_i)   -- atoms collectively needed (meet)
//   m ≤ o  iff  ∀i: m_i ≤ o_i   -- partial order
//   |m|   = Σ m_i               -- determinant: total atoms required
//   (m ⊖ o)_i = max(o_i - m_i,0) -- atoms still missing for o given m
//
// (The paper writes the last operator with a ⊖-like symbol and argument order
// "m ⊖ o = what o needs beyond m"; we keep that order.)
//
// These five operations are the entire vocabulary of the Atom scheduling
// problem (§4.2-4.4), so they live in their own tiny library with
// property-based tests for the algebraic laws.
//
// Storage: the run-time decision path (selection, UpgradeState, RTM demand
// accumulation) performs tens of millions of Molecule ops per sweep, so the
// counts live in kInlineCapacity inline lanes sized to cover the platform
// atom-type counts we model (H.264 has 13 atom types, JPEG 6) — no heap
// allocation for dimension ≤ kInlineCapacity, with a std::vector spill for
// larger platforms. An inline molecule keeps its lanes at and above
// dimension() zero. Every lattice op maps zero lanes to zero lanes, so the
// hot ops (join_into, join_determinant, missing_determinant, leq and the
// determinant) run over all kInlineCapacity lanes with no early exit: a
// loop with a compile-time trip count, which the compiler vectorizes at
// -O2 on any target (SSE2 psubusw/paddw on x86-64). Spilled molecules keep
// scalar loops, out of line. The determinant is cached and recomputed
// lazily; taking a mutable reference via operator[] conservatively
// invalidates the cache. The *_into / *_determinant free functions below
// compute lattice ops in place or without materializing the result at all.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/types.h"

namespace rispp {

class Molecule {
 public:
  /// Covers every platform we instantiate (H.264: 13 atom types) without
  /// touching the heap; larger dimensions transparently spill to a vector.
  static constexpr std::size_t kInlineCapacity = 16;

  Molecule() = default;

  /// Zero molecule (neutral element of ∪) of the given dimension.
  explicit Molecule(std::size_t dimension) { assign_zero(dimension); }

  Molecule(std::initializer_list<AtomCount> counts) {
    assign(std::span<const AtomCount>(counts.begin(), counts.size()));
  }

  explicit Molecule(const std::vector<AtomCount>& counts) {
    assign(std::span<const AtomCount>(counts.data(), counts.size()));
  }

  /// Copies and moves take the lanes; the spill vector only when spilled.
  Molecule(const Molecule& other)
      : size_(other.size_), lanes_(other.lanes_), det_(other.det_), det_valid_(other.det_valid_) {
    if (spilled()) heap_ = other.heap_;
  }
  /// A spilled source is left an empty molecule (dimension 0).
  Molecule(Molecule&& other) noexcept
      : size_(other.size_), lanes_(other.lanes_), det_(other.det_), det_valid_(other.det_valid_) {
    if (spilled()) take_spill(other);
  }
  Molecule& operator=(const Molecule& other) {
    if (other.spilled()) heap_ = other.heap_;
    copy_scalars(other);
    return *this;
  }
  Molecule& operator=(Molecule&& other) noexcept {
    if (this == &other) return *this;
    copy_scalars(other);
    if (spilled()) take_spill(other);
    return *this;
  }

  /// Unit-Molecule u_t: one instance of atom type t (eq. (1) alphabet).
  static Molecule unit(std::size_t dimension, AtomTypeId type);

  std::size_t dimension() const { return size_; }
  bool empty() const;  // all-zero?

  AtomCount operator[](std::size_t i) const { return data()[i]; }
  /// Writable only below dimension(), which keeps the zero lanes zero.
  AtomCount& operator[](std::size_t i) {
    RISPP_CHECK(i < size_);
    det_valid_ = false;  // conservative: the caller may write through the ref
    return data()[i];
  }
  std::span<const AtomCount> counts() const { return {data(), size_}; }

  /// Reuse this molecule's storage as a zero molecule of `dimension`.
  void assign_zero(std::size_t dimension);
  /// Reuse this molecule's storage for a copy of `counts`.
  void assign(std::span<const AtomCount> counts);

  /// Determinant |m|: total number of atoms required. Cached; O(1) on the
  /// decision path where molecules are built once and queried repeatedly.
  unsigned determinant() const {
    if (!det_valid_) {
      det_ = spilled() ? spilled_sum(counts()) : lane_sum(lanes_);
      det_valid_ = true;
    }
    return det_;
  }

  /// Number of distinct atom types with non-zero count.
  unsigned type_count() const;

  bool operator==(const Molecule& rhs) const;

  /// "m1,m2,...,mn" — used in logs and golden tests.
  std::string to_string() const;

 private:
  using Lanes = std::array<AtomCount, kInlineCapacity>;

  friend void join_into(Molecule& acc, const Molecule& m);
  friend void meet_into(Molecule& acc, const Molecule& m);
  friend bool leq(const Molecule& a, const Molecule& b);
  friend void missing_into(Molecule& out, const Molecule& available, const Molecule& wanted);
  friend unsigned missing_determinant(const Molecule& available, const Molecule& wanted);
  friend unsigned join_determinant(const Molecule& a, const Molecule& b);

  bool spilled() const { return size_ > kInlineCapacity; }
  AtomCount* data() { return spilled() ? heap_.data() : lanes_.data(); }
  const AtomCount* data() const { return spilled() ? heap_.data() : lanes_.data(); }
  void copy_scalars(const Molecule& other) {
    size_ = other.size_;
    lanes_ = other.lanes_;
    det_ = other.det_;
    det_valid_ = other.det_valid_;
  }
  void take_spill(Molecule& other) noexcept {
    heap_ = std::move(other.heap_);
    other.size_ = 0;
    other.lanes_ = {};
    other.det_ = 0;
    other.det_valid_ = true;
  }

  /// The lattice ops' dimension check: an inline compare, failing out of
  /// line.
  static void check_same_dimension(const Molecule& a, const Molecule& b) {
    if (a.size_ != b.size_) [[unlikely]] dimension_mismatch(a.size_, b.size_);
  }
  [[noreturn]] static void dimension_mismatch(std::size_t a, std::size_t b);

  // Lane loops: a fixed trip count and no early exit, so they vectorize.
  // Each result lands in a fresh Lanes value, so an output may alias an
  // input.
  static Lanes lane_max(const Lanes& a, const Lanes& b) {
    Lanes out;
    for (std::size_t i = 0; i < kInlineCapacity; ++i) out[i] = std::max(a[i], b[i]);
    return out;
  }
  /// have ⊖ want per lane, as max(want, have) - have.
  static Lanes lane_missing(const Lanes& have, const Lanes& want) {
    Lanes out;
    for (std::size_t i = 0; i < kInlineCapacity; ++i)
      out[i] = static_cast<AtomCount>(std::max(want[i], have[i]) - have[i]);
    return out;
  }
  static unsigned lane_sum(const Lanes& lanes) {
    unsigned sum = 0;
    for (std::size_t i = 0; i < kInlineCapacity; ++i) sum += lanes[i];
    return sum;
  }
  /// Non-zero iff some lane is; reduces in 16 bits, without widening.
  static AtomCount lane_or(const Lanes& lanes) {
    AtomCount any = 0;
    for (std::size_t i = 0; i < kInlineCapacity; ++i) any |= lanes[i];
    return any;
  }

  // The scalar loops of spilled molecules.
  static unsigned spilled_sum(std::span<const AtomCount> counts);
  static void spilled_join_into(Molecule& acc, const Molecule& m);
  static void spilled_missing_into(Molecule& out, const Molecule& available,
                                   const Molecule& wanted);
  static unsigned spilled_missing_determinant(const Molecule& available, const Molecule& wanted);
  static unsigned spilled_join_determinant(const Molecule& a, const Molecule& b);
  static bool spilled_leq(const Molecule& a, const Molecule& b);

  std::size_t size_ = 0;
  Lanes lanes_{};
  std::vector<AtomCount> heap_;  // holds the counts only while spilled()
  mutable unsigned det_ = 0;
  mutable bool det_valid_ = true;  // empty molecule has |m| = 0
};

/// Join: Meta-Molecule containing the atoms required to implement both.
Molecule join(const Molecule& a, const Molecule& b);
/// Meet: atoms collectively needed by both.
Molecule meet(const Molecule& a, const Molecule& b);

inline Molecule operator|(const Molecule& a, const Molecule& b) { return join(a, b); }
inline Molecule operator&(const Molecule& a, const Molecule& b) { return meet(a, b); }

/// acc := acc ∪ m, in place (no allocation once acc has m's dimension).
inline void join_into(Molecule& acc, const Molecule& m) {
  Molecule::check_same_dimension(acc, m);
  if (acc.spilled()) [[unlikely]]
    Molecule::spilled_join_into(acc, m);
  else
    acc.lanes_ = Molecule::lane_max(acc.lanes_, m.lanes_);
  acc.det_valid_ = false;
}
/// acc := acc ∩ m, in place.
void meet_into(Molecule& acc, const Molecule& m);

/// Partial order m ≤ o iff every component is ≤. Note: !(a<=b) does NOT imply
/// b<=a — molecules can be incomparable (paper's m2=(2,2) vs m4=(1,3)).
inline bool leq(const Molecule& a, const Molecule& b) {
  Molecule::check_same_dimension(a, b);
  if (a.spilled()) [[unlikely]]
    return Molecule::spilled_leq(a, b);
  // a ≤ b iff b ⊖ a is zero: b already offers a.
  return Molecule::lane_or(Molecule::lane_missing(b.lanes_, a.lanes_)) == 0;
}

/// available ⊖ wanted: the minimal Meta-Molecule that still has to be loaded
/// to offer `wanted` when `available` is already configured.
Molecule missing(const Molecule& available, const Molecule& wanted);
/// out := available ⊖ wanted, reusing out's storage; `out` may alias either
/// operand.
inline void missing_into(Molecule& out, const Molecule& available, const Molecule& wanted) {
  Molecule::check_same_dimension(available, wanted);
  if (available.spilled()) [[unlikely]] {
    Molecule::spilled_missing_into(out, available, wanted);
    return;
  }
  out.lanes_ = Molecule::lane_missing(available.lanes_, wanted.lanes_);
  out.size_ = available.size_;
  out.det_valid_ = false;
}
/// |available ⊖ wanted| without materializing the difference.
inline unsigned missing_determinant(const Molecule& available, const Molecule& wanted) {
  Molecule::check_same_dimension(available, wanted);
  if (available.spilled()) [[unlikely]]
    return Molecule::spilled_missing_determinant(available, wanted);
  return Molecule::lane_sum(Molecule::lane_missing(available.lanes_, wanted.lanes_));
}

/// |a ∪ b| without materializing the join.
inline unsigned join_determinant(const Molecule& a, const Molecule& b) {
  Molecule::check_same_dimension(a, b);
  if (a.spilled()) [[unlikely]]
    return Molecule::spilled_join_determinant(a, b);
  return Molecule::lane_sum(Molecule::lane_max(a.lanes_, b.lanes_));
}

/// sup M = ∪ over the set (zero molecule if empty, per the neutral element).
Molecule sup(std::span<const Molecule> set, std::size_t dimension);
/// inf M = ∩ over the set. Empty set has no finite representation here, so
/// the caller must pass a non-empty set.
Molecule inf(std::span<const Molecule> set);

/// Decomposes (available ⊖ wanted) into a list of Unit-Molecule type ids —
/// the tokens the scheduling function SF emits (§4.2 eq. (1)).
std::vector<AtomTypeId> unit_decomposition(const Molecule& meta);
/// Appends the decomposition to `out` instead of allocating a fresh vector.
void append_unit_decomposition(const Molecule& meta, std::vector<AtomTypeId>& out);

}  // namespace rispp
