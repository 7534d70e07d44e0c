#include "rtm/decision_memo.h"

#include <algorithm>

namespace rispp {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

DecisionMemo::DecisionMemo(std::size_t capacity, unsigned shards, Scope scope) {
  const std::size_t count = round_up_pow2(std::max(1u, shards));
  shard_mask_ = count - 1;
  shard_capacity_ = std::max<std::size_t>(1, capacity / count);
  shards_ = std::vector<Shard>(count);
  // Function-local statics: constructing a memo (one per solo RTM) takes the
  // registry lock only the first time per process and scope. Every memo
  // registers rtm.decision_cache.evictions, so snapshots carry the RTM's
  // counter family whole even when only shared memos ran.
  static MetricCounter& rtm_evictions = metric_counter("rtm.decision_cache.evictions");
  if (scope == Scope::kShared) {
    static const Metrics shared{&metric_counter("fleet.decision_cache.hits"),
                                &metric_counter("fleet.decision_cache.misses"),
                                &metric_counter("fleet.decision_cache.evictions"),
                                &metric_counter("fleet.decision_cache.cross_session_hits")};
    metrics_ = shared;
  } else {
    metrics_.evictions = &rtm_evictions;
  }
}

DecisionMemo::DomainId DecisionMemo::register_domain(std::uint64_t set_fingerprint,
                                                     std::string_view scheduler,
                                                     Cycles payback_cycles_per_atom,
                                                     std::uint64_t config_digest) {
  std::lock_guard<std::mutex> lock(domains_mutex_);
  for (DomainId id = 0; id < domains_.size(); ++id) {
    const Domain& d = domains_[id];
    if (d.set_fingerprint == set_fingerprint && d.scheduler == scheduler &&
        d.payback == payback_cycles_per_atom && d.config_digest == config_digest)
      return id;
  }
  domains_.push_back(Domain{set_fingerprint, std::string(scheduler), payback_cycles_per_atom,
                            config_digest});
  return static_cast<DomainId>(domains_.size() - 1);
}

std::uint64_t DecisionMemo::key_hash(const Key& key) {
  // FNV-1a digest of the full key; lookups compare the key exactly, so the
  // digest only routes (shard, bucket), it never decides.
  const auto& [domain, sis, forecast, ready, budget] = key;
  std::uint64_t hash = fingerprint_mix(fingerprint_mix(0, domain), sis.size());
  for (SiId si : sis) hash = fingerprint_mix(hash, si);
  for (std::uint64_t f : forecast) hash = fingerprint_mix(hash, f);
  for (std::size_t t = 0; t < ready.dimension(); ++t) hash = fingerprint_mix(hash, ready[t]);
  return fingerprint_mix(hash, budget);
}

DecisionMemo::Lru::const_iterator DecisionMemo::Shard::find(std::uint64_t hash,
                                                            const Key& key) const {
  const auto bucket_it = buckets.find(hash);
  if (bucket_it == buckets.end()) return lru.end();
  for (const auto entry_it : bucket_it->second)
    if (entry_it->domain == key.domain && entry_it->budget == key.budget &&
        entry_it->sis == key.sis && entry_it->forecast == key.forecast &&
        entry_it->ready == key.ready)
      return entry_it;
  return lru.end();
}

bool DecisionMemo::lookup(const Key& key, std::uint64_t session, Decision& out) {
  const std::uint64_t hash = key_hash(key);
  Shard& shard = shard_for(hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.find(hash, key);
  if (it == shard.lru.end()) {
    ++shard.misses;
    if (metrics_.misses != nullptr) metrics_.misses->add();
    return false;
  }
  ++shard.hits;
  if (metrics_.hits != nullptr) metrics_.hits->add();
  if (it->session != session) {
    ++shard.cross_session_hits;
    if (metrics_.cross_session_hits != nullptr) metrics_.cross_session_hits->add();
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it);
  out = it->decision;  // copy out: a shared entry may be evicted next
  return true;
}

void DecisionMemo::insert(const Key& key, std::uint64_t session, const Decision& decision) {
  const std::uint64_t hash = key_hash(key);
  Shard& shard = shard_for(hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  // A racing session may have inserted the same key since our miss; keeping
  // the first copy preserves its recency and session tag.
  if (shard.find(hash, key) != shard.lru.end()) return;
  if (shard.lru.size() >= shard_capacity_) {
    const auto victim = std::prev(shard.lru.end());
    auto& victim_bucket = shard.buckets[victim->hash];
    victim_bucket.erase(std::find(victim_bucket.begin(), victim_bucket.end(), victim));
    if (victim_bucket.empty()) shard.buckets.erase(victim->hash);
    shard.lru.erase(victim);
    ++shard.evictions;
    if (metrics_.evictions != nullptr) metrics_.evictions->add();
  }
  Entry& entry = shard.lru.emplace_front();
  entry.domain = key.domain;
  entry.session = session;
  entry.sis = key.sis;
  entry.forecast = key.forecast;
  entry.ready = key.ready;
  entry.budget = key.budget;
  entry.hash = hash;
  entry.decision = decision;
  shard.buckets[hash].push_back(shard.lru.begin());
}

bool DecisionMemo::peek(const Key& key, Decision& out) const {
  const std::uint64_t hash = key_hash(key);
  const Shard& shard = shard_for(hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.find(hash, key);
  if (it == shard.lru.end()) return false;
  out = it->decision;
  return true;
}

std::uint64_t DecisionMemo::total(std::uint64_t Shard::*counter) const {
  std::uint64_t sum = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    sum += s.*counter;
  }
  return sum;
}

std::size_t DecisionMemo::size() const {
  std::size_t sum = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    sum += s.lru.size();
  }
  return sum;
}

}  // namespace rispp
