// The decision memo (DESIGN §6.2, §8): memoized selection→schedule decisions,
// one class for both an RTM's private memo and the fleet's process-wide memo
// shared across sessions.
//
// A decision is a pure function of its key — the hot spot's SI list, the
// forecast vector, the ready atoms and the AC budget — once the per-RTM
// constants (SI set, scheduler strategy, payback constant, and every other
// decision-relevant RtmConfig knob) are fixed. register_domain() interns
// those constants (same tuple → same id) and the domain id is part of every
// key, so the key is complete even when heterogeneous RTMs share one memo:
// replaying a hit is bit-exact by construction, and eviction is invisible to
// results (an evicted key simply recomputes).
//
// Layout: the memo is sharded by key digest. Each shard holds its own mutex,
// an LRU list (front = most recent; a hit splices its entry to the front, an
// insert past the shard's capacity evicts the back) and digest → entry
// buckets holding full keys, so a digest collision degrades to a full key
// compare, never to a wrong decision. Concurrent sessions contend only when
// their keys land in the same shard; an RTM's private memo is one
// uncontended shard. Hits copy the decision out under the shard lock (a
// shared entry may be evicted by another session the moment the lock drops).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "alg/molecule.h"
#include "base/metrics.h"
#include "base/types.h"
#include "isa/si.h"

namespace rispp {

class DecisionMemo {
 public:
  /// The memoized result of one decision. Schedule::steps are not kept — the
  /// RTM only replays the atom load sequence.
  struct Decision {
    std::vector<SiRef> selection;
    std::vector<AtomTypeId> loads;
  };

  using DomainId = std::uint32_t;

  /// The full key of one decision: the caller's domain plus everything the
  /// selection→schedule pipeline reads that varies at run time.
  struct Key {
    DomainId domain;
    const std::vector<SiId>& sis;
    const std::vector<std::uint64_t>& forecast;
    const Molecule& ready;
    unsigned budget;
  };

  /// Which registry counters the memo's own traffic feeds (§7). kShared:
  /// fleet.decision_cache.{hits,misses,evictions,cross_session_hits}, where
  /// a cross-session hit is a hit on an entry another session inserted.
  /// kPrivate: the memo serves one RTM, which already counts every lookup as
  /// rtm.decision_cache.{hits,misses}, so only rtm.decision_cache.evictions.
  enum class Scope : std::uint8_t { kShared, kPrivate };

  /// `capacity` bounds the total entry count across all shards (LRU per
  /// shard); `shards` is rounded up to a power of two.
  explicit DecisionMemo(std::size_t capacity = 1 << 16, unsigned shards = 16,
                        Scope scope = Scope::kShared);

  /// Interns the per-RTM constants of a key (same tuple → same id).
  /// `config_digest` is rtm_domain_digest() of the RTM's configuration. A
  /// memo that serves a single RTM needs no registration: its keys use
  /// domain 0.
  DomainId register_domain(std::uint64_t set_fingerprint, std::string_view scheduler,
                           Cycles payback_cycles_per_atom, std::uint64_t config_digest);

  /// On a hit copies the decision into `out`, makes it the most recent entry
  /// and returns true. `session` identifies the caller for cross-session
  /// accounting.
  bool lookup(const Key& key, std::uint64_t session, Decision& out);

  /// Inserts a freshly computed decision. A concurrent insert of the same
  /// key by another session is benign: the value is a pure function of the
  /// key, so the first copy stays and replays identically.
  void insert(const Key& key, std::uint64_t session, const Decision& decision);

  /// lookup() without side effects: neither recency nor any counter moves.
  bool peek(const Key& key, Decision& out) const;

  // -- Introspection ----------------------------------------------------
  std::uint64_t hits() const { return total(&Shard::hits); }
  std::uint64_t misses() const { return total(&Shard::misses); }
  std::uint64_t evictions() const { return total(&Shard::evictions); }
  /// Hits on entries inserted by a different session than the one looking up.
  std::uint64_t cross_session_hits() const { return total(&Shard::cross_session_hits); }
  std::size_t size() const;

 private:
  struct Entry {
    DomainId domain = 0;
    std::uint64_t session = 0;  // inserter (cross-session-hit accounting)
    std::vector<SiId> sis;
    std::vector<std::uint64_t> forecast;
    Molecule ready;
    unsigned budget = 0;
    std::uint64_t hash = 0;  // key digest, kept so eviction finds the bucket
    Decision decision;
  };
  using Lru = std::list<Entry>;
  struct Shard {
    mutable std::mutex mutex;
    Lru lru;
    std::unordered_map<std::uint64_t, std::vector<Lru::iterator>> buckets;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t cross_session_hits = 0;

    /// The entry holding `key` (digest `hash`), or lru.end(). Caller locks.
    Lru::const_iterator find(std::uint64_t hash, const Key& key) const;
  };
  struct Metrics {
    MetricCounter* hits = nullptr;  // null: not published in this scope
    MetricCounter* misses = nullptr;
    MetricCounter* evictions = nullptr;
    MetricCounter* cross_session_hits = nullptr;
  };

  static std::uint64_t key_hash(const Key& key);
  Shard& shard_for(std::uint64_t hash) { return shards_[hash & shard_mask_]; }
  const Shard& shard_for(std::uint64_t hash) const { return shards_[hash & shard_mask_]; }
  std::uint64_t total(std::uint64_t Shard::*counter) const;

  std::size_t shard_capacity_;
  std::size_t shard_mask_;
  std::vector<Shard> shards_;
  Metrics metrics_;

  std::mutex domains_mutex_;
  struct Domain {
    std::uint64_t set_fingerprint;
    std::string scheduler;
    Cycles payback;
    std::uint64_t config_digest;
  };
  std::vector<Domain> domains_;
};

}  // namespace rispp
