#include "rtm/path_store.h"

#include <algorithm>

namespace rispp {

namespace {

std::uint64_t key_digest(const std::vector<SiId>& sis, const Molecule& ready, unsigned budget) {
  std::uint64_t hash = fingerprint_mix(0, sis.size());
  for (SiId si : sis) hash = fingerprint_mix(hash, si);
  for (std::size_t t = 0; t < ready.dimension(); ++t) hash = fingerprint_mix(hash, ready[t]);
  return fingerprint_mix(hash, budget);
}

}  // namespace

PathStore::Found PathStore::find(const std::vector<SiId>& sis, const Molecule& ready,
                                 unsigned budget) {
  const std::uint64_t digest = key_digest(sis, ready, budget);
  for (std::size_t i = 0; i < digests_.size(); ++i) {
    Slot& slot = slots_[i];
    if (digests_[i] != digest || slot.budget != budget || slot.sis != sis ||
        !(slot.ready == ready))
      continue;
    slot.last_use = ++clock_;
    return {&slot.path, true};
  }

  // First sighting: remember the digest only. A digest collision merely
  // records a key one sighting early.
  if (std::find(sightings_.begin(), sightings_.end(), digest) == sightings_.end()) {
    if (sightings_.size() < kSightings) {
      if (sightings_.empty()) sightings_.reserve(kSightings);
      sightings_.push_back(digest);
    } else {
      sightings_[next_sighting_] = digest;
      next_sighting_ = (next_sighting_ + 1) % kSightings;
    }
    return {};
  }

  // Second sighting: a fresh slot, or the least recently used one.
  std::size_t i = slots_.size();
  if (i < kCapacity) {
    slots_.emplace_back();
    digests_.push_back(0);
  } else {
    i = static_cast<std::size_t>(
        std::min_element(slots_.begin(), slots_.end(),
                         [](const Slot& a, const Slot& b) { return a.last_use < b.last_use; }) -
        slots_.begin());
  }
  Slot& slot = slots_[i];
  digests_[i] = digest;
  slot.sis = sis;
  slot.ready = ready;
  slot.budget = budget;
  slot.last_use = ++clock_;
  slot.path.clear();
  return {&slot.path, false};
}

}  // namespace rispp
