#include "alg/molecule.h"

#include <algorithm>
#include <sstream>

#include "base/check.h"

namespace rispp {

Molecule Molecule::unit(std::size_t dimension, AtomTypeId type) {
  RISPP_CHECK(type < dimension);
  Molecule u(dimension);
  u[type] = 1;
  return u;
}

void Molecule::assign_zero(std::size_t dimension) {
  size_ = dimension;
  lanes_ = {};
  if (spilled()) heap_.assign(dimension, AtomCount{0});
  det_ = 0;
  det_valid_ = true;
}

void Molecule::assign(std::span<const AtomCount> counts) {
  size_ = counts.size();
  if (spilled()) {
    heap_.assign(counts.begin(), counts.end());
  } else {
    Lanes lanes{};  // `counts` may be this molecule's own
    std::copy(counts.begin(), counts.end(), lanes.begin());
    lanes_ = lanes;
  }
  det_valid_ = false;
}

bool Molecule::empty() const {
  const AtomCount* d = data();
  return std::all_of(d, d + size_, [](AtomCount c) { return c == 0; });
}

unsigned Molecule::type_count() const {
  const AtomCount* d = data();
  return static_cast<unsigned>(
      std::count_if(d, d + size_, [](AtomCount c) { return c != 0; }));
}

bool Molecule::operator==(const Molecule& rhs) const {
  if (size_ != rhs.size_) return false;
  return std::equal(data(), data() + size_, rhs.data());
}

std::string Molecule::to_string() const {
  std::string out = "(";
  for (std::size_t i = 0; i < size_; ++i) {
    if (i) out += ',';
    out += std::to_string(data()[i]);
  }
  out += ')';
  return out;
}

void Molecule::dimension_mismatch(std::size_t a, std::size_t b) {
  std::ostringstream os;
  os << "dimension mismatch: " << a << " vs " << b;
  detail::check_failed("a.dimension() == b.dimension()", __FILE__, __LINE__, os.str());
}

Molecule join(const Molecule& a, const Molecule& b) {
  Molecule out = a;
  join_into(out, b);
  return out;
}

Molecule meet(const Molecule& a, const Molecule& b) {
  Molecule out = a;
  meet_into(out, b);
  return out;
}

void meet_into(Molecule& acc, const Molecule& m) {
  Molecule::check_same_dimension(acc, m);
  AtomCount* dst = acc.data();
  const AtomCount* src = m.data();
  // Inline, the zero lanes stay zero: min(0, 0) = 0.
  const std::size_t n = acc.spilled() ? acc.size_ : Molecule::kInlineCapacity;
  for (std::size_t i = 0; i < n; ++i) dst[i] = std::min(dst[i], src[i]);
  acc.det_valid_ = false;
}

Molecule missing(const Molecule& available, const Molecule& wanted) {
  Molecule out;
  missing_into(out, available, wanted);
  return out;
}

unsigned Molecule::spilled_sum(std::span<const AtomCount> counts) {
  unsigned sum = 0;
  for (const AtomCount c : counts) sum += c;
  return sum;
}

void Molecule::spilled_join_into(Molecule& acc, const Molecule& m) {
  for (std::size_t i = 0; i < acc.size_; ++i) acc.heap_[i] = std::max(acc.heap_[i], m.heap_[i]);
}

void Molecule::spilled_missing_into(Molecule& out, const Molecule& available,
                                    const Molecule& wanted) {
  const std::size_t n = available.size_;
  // Element i is written only from element i of the inputs, so `out` may
  // alias either operand; resize before capturing the input pointers (a
  // no-op when aliased, since the dimensions already match).
  out.size_ = n;
  out.heap_.resize(n);
  AtomCount* dst = out.heap_.data();
  const AtomCount* have = available.heap_.data();
  const AtomCount* want = wanted.heap_.data();
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = want[i] > have[i] ? static_cast<AtomCount>(want[i] - have[i]) : 0;
  out.det_valid_ = false;
}

unsigned Molecule::spilled_missing_determinant(const Molecule& available,
                                               const Molecule& wanted) {
  unsigned sum = 0;
  for (std::size_t i = 0; i < available.size_; ++i)
    if (wanted.heap_[i] > available.heap_[i])
      sum += static_cast<unsigned>(wanted.heap_[i] - available.heap_[i]);
  return sum;
}

unsigned Molecule::spilled_join_determinant(const Molecule& a, const Molecule& b) {
  unsigned sum = 0;
  for (std::size_t i = 0; i < a.size_; ++i) sum += std::max(a.heap_[i], b.heap_[i]);
  return sum;
}

bool Molecule::spilled_leq(const Molecule& a, const Molecule& b) {
  for (std::size_t i = 0; i < a.size_; ++i)
    if (a.heap_[i] > b.heap_[i]) return false;
  return true;
}

Molecule sup(std::span<const Molecule> set, std::size_t dimension) {
  Molecule acc(dimension);
  for (const Molecule& m : set) join_into(acc, m);
  return acc;
}

Molecule inf(std::span<const Molecule> set) {
  RISPP_CHECK_MSG(!set.empty(), "inf of an empty Molecule set is unbounded");
  Molecule acc = set.front();
  for (std::size_t i = 1; i < set.size(); ++i) meet_into(acc, set[i]);
  return acc;
}

std::vector<AtomTypeId> unit_decomposition(const Molecule& meta) {
  std::vector<AtomTypeId> units;
  units.reserve(meta.determinant());
  append_unit_decomposition(meta, units);
  return units;
}

void append_unit_decomposition(const Molecule& meta, std::vector<AtomTypeId>& out) {
  for (std::size_t i = 0; i < meta.dimension(); ++i)
    for (AtomCount k = 0; k < meta[i]; ++k) out.push_back(static_cast<AtomTypeId>(i));
}

}  // namespace rispp
