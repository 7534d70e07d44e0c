#include "dse/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <utility>

#include "base/check.h"
#include "base/metrics.h"
#include "base/prng.h"
#include "baselines/software_only.h"
#include "dpg/makespan_memo.h"
#include "isa/si.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "select/selection.h"
#include "sim/executor.h"

namespace rispp::dse {
namespace {

/// One full replay-based evaluation of an already-built set. The engine
/// scores through the run-batched fast path with the RTM's decision cache
/// on; the naive baseline replays scalar with it off. Bit-exact either way
/// (tests/replay_equivalence_test, rtm decision-cache equivalence).
EvalResult evaluate_set(const SpecialInstructionSet& set, const WorkloadTrace& trace,
                        Cycles reference, const std::vector<std::vector<std::uint64_t>>& seeds,
                        const DseOptions& options, unsigned slices, ReplayMode mode,
                        bool decision_cache) {
  // Candidate-evaluation wall time: the distribution the eval-cache and
  // early-abandon layers are trying to shrink (safe from pool workers; the
  // histogram shards per thread).
  const auto eval_started = std::chrono::steady_clock::now();
  EvalResult result;
  result.slices = slices;
  result.total_cycles.reserve(options.ac_budgets.size());
  double sum = 0.0;
  for (const unsigned budget : options.ac_budgets) {
    const auto scheduler = make_scheduler(options.scheduler);
    RtmConfig config;
    config.container_count = budget;
    config.scheduler = scheduler.get();
    config.enable_decision_cache = decision_cache;
    RunTimeManager rtm(&set, trace.hot_spots.size(), config);
    seed_forecasts(rtm, seeds);
    const SimResult sim = run_trace(trace, rtm, nullptr, mode);
    result.total_cycles.push_back(sim.total_cycles);
    sum += static_cast<double>(reference) / static_cast<double>(sim.total_cycles);
  }
  result.mean_speedup = sum / static_cast<double>(options.ac_budgets.size());
  static MetricHistogram& eval_ns = metric_histogram("dse.candidate_eval_ns");
  eval_ns.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - eval_started)
          .count()));
  return result;
}

}  // namespace

unsigned design_slices(const config::PlatformSpec& spec) {
  unsigned total = 0;
  for (const AtomType& type : spec.atoms) {
    unsigned widest = 1;
    for (const config::PlatformSi& si : spec.sis)
      for (const auto& [name, cap] : si.caps)
        if (name == type.name) widest = std::max(widest, cap);
    total += type.slices * widest;
  }
  return total;
}

Cycles software_reference_cycles(const SpecialInstructionSet& set,
                                 const WorkloadTrace& trace) {
  SoftwareOnlyBackend backend(&set);
  return run_trace(trace, backend).total_cycles;
}

std::vector<std::vector<std::uint64_t>> trace_forecast_seeds(const WorkloadTrace& trace) {
  std::vector<std::uint64_t> instance_count(trace.hot_spots.size(), 0);
  std::vector<std::vector<std::uint64_t>> totals(trace.hot_spots.size());
  for (const auto& inst : trace.instances) {
    ++instance_count[inst.hot_spot];
    auto& t = totals[inst.hot_spot];
    const SiSummary& summary = inst.summary();
    for (std::size_t slot = 0; slot < summary.size(); ++slot) {
      const SiId si = summary.si(slot);
      if (si >= t.size()) t.resize(si + 1, 0);
      t[si] += summary.total(slot);
    }
  }
  for (HotSpotId hs = 0; hs < totals.size(); ++hs)
    if (instance_count[hs] != 0)
      for (auto& total : totals[hs])
        total = (total + instance_count[hs] - 1) / instance_count[hs];  // ceil mean
  return totals;
}

std::uint64_t eval_context_digest(const WorkloadTrace& trace, Cycles reference_cycles,
                                  const DseOptions& options) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fingerprint_mix(h, options.scheduler.size());
  for (const char c : options.scheduler) h = fingerprint_mix(h, static_cast<unsigned char>(c));
  h = fingerprint_mix(h, options.ac_budgets.size());
  for (const unsigned budget : options.ac_budgets) h = fingerprint_mix(h, budget);
  h = fingerprint_mix(h, trace.hot_spots.size());
  for (const auto& hs : trace.hot_spots) {
    h = fingerprint_mix(h, hs.sis.size());
    for (const SiId si : hs.sis) h = fingerprint_mix(h, si);
    h = fingerprint_mix(h, hs.per_execution_overhead);
  }
  h = fingerprint_mix(h, trace.instances.size());
  h = fingerprint_mix(h, trace.total_si_executions());
  h = fingerprint_mix(h, trace.overhead_cycles());
  h = fingerprint_mix(h, reference_cycles);
  return h;
}

EvalResult evaluate_candidate(const config::PlatformSpec& spec, const WorkloadTrace& trace,
                              Cycles reference_cycles, const DseOptions& options) {
  MakespanMemo* memo =
      options.makespan_memo != nullptr ? options.makespan_memo : &MakespanMemo::global();
  const SpecialInstructionSet set = config::build_platform(spec, memo);
  return evaluate_set(set, trace, reference_cycles, trace_forecast_seeds(trace), options,
                      design_slices(spec), ReplayMode::kBatched, /*decision_cache=*/true);
}

EvalResult evaluate_candidate_naive(const config::PlatformSpec& spec,
                                    const WorkloadTrace& trace, Cycles reference_cycles,
                                    const DseOptions& options) {
  const SpecialInstructionSet set = config::build_platform(spec);  // no memo
  return evaluate_set(set, trace, reference_cycles, trace_forecast_seeds(trace), options,
                      design_slices(spec), ReplayMode::kScalar, /*decision_cache=*/false);
}

DseResult run_dse(const WorkloadTrace& trace, const config::PlatformSpec& handbuilt,
                  const DseOptions& options) {
  RISPP_CHECK_MSG(has_scheduler(options.scheduler),
                  "unknown scheduler " << options.scheduler);
  RISPP_CHECK(!options.ac_budgets.empty());
  RISPP_CHECK(options.population > 0);
  ThreadPool* pool = options.pool != nullptr ? options.pool : &ThreadPool::global();
  EvalCache* cache = options.eval_cache != nullptr ? options.eval_cache : &EvalCache::global();
  MakespanMemo* memo =
      options.makespan_memo != nullptr ? options.makespan_memo : &MakespanMemo::global();

  DseResult result;

  // The exploration seed and the speedup denominator. Work preservation
  // makes the software reference of the seed valid for every candidate.
  DesignPoint seed_point = degraded_seed(handbuilt);
  const SpecialInstructionSet seed_set = config::build_platform(seed_point.spec, memo);
  result.reference_cycles = software_reference_cycles(seed_set, trace);
  const std::uint64_t ctx = eval_context_digest(trace, result.reference_cycles, options);
  const auto seeds = trace_forecast_seeds(trace);
  const unsigned max_budget =
      *std::max_element(options.ac_budgets.begin(), options.ac_budgets.end());
  // The trace side of every proposal's speedup bound, computed once.
  const Cycles overhead_cycles = trace.overhead_cycles();
  std::vector<std::uint64_t> si_executions(seed_set.si_count());
  for (SiId si = 0; si < si_executions.size(); ++si) si_executions[si] = trace.executions_of(si);

  // Serial-path scoring through the eval cache.
  const auto score_cached = [&](const SpecialInstructionSet& set, std::uint64_t fp,
                                unsigned slices) -> EvalResult {
    if (const auto hit = cache->lookup(fp, ctx)) {
      ++result.cache_hits;
      return *hit;
    }
    const EvalResult r = evaluate_set(set, trace, result.reference_cycles, seeds, options, slices,
                                      ReplayMode::kBatched, /*decision_cache=*/true);
    ++result.replays;
    cache->insert(fp, ctx, r);
    return r;
  };

  // The hand-built ISA scored under the same context — the comparison
  // target; never a member of the population or the front.
  {
    const SpecialInstructionSet set = config::build_platform(handbuilt, memo);
    result.handbuilt_eval = score_cached(set, fingerprint(set), design_slices(handbuilt));
  }

  ParetoFront front;
  std::vector<DseCandidate> survivors;
  {
    const std::uint64_t fp = fingerprint(seed_set);
    const EvalResult eval = score_cached(seed_set, fp, design_slices(seed_point.spec));
    front.insert(ParetoPoint{eval.slices, eval.mean_speedup, fp});
    survivors.push_back(DseCandidate{std::move(seed_point), fp, eval});
  }

  Xoshiro256 rng(options.seed);

  /// Per-proposal slot for the parallel build stage.
  struct Slot {
    bool valid = false;
    std::uint64_t fp = 0;
    unsigned slices = 0;
    double bound = 0.0;
    std::optional<SpecialInstructionSet> set;
  };

  for (unsigned gen = 0; gen < options.generations; ++gen) {
    if (result.replays >= options.budget) break;
    ++result.generations_run;

    // 1. Serial proposal: children of every survivor, deduplicated by spec
    // digest within this generation only — a revisit of an earlier
    // generation's point is kept and becomes an eval-cache hit.
    std::vector<DesignPoint> proposals;
    std::set<std::uint64_t> generation_digests;
    for (const DseCandidate& survivor : survivors) {
      for (unsigned m = 0; m < options.mutations_per_survivor; ++m) {
        DesignPoint child = survivor.point;
        const unsigned edits = 1 + static_cast<unsigned>(rng.bounded(3));
        bool mutated = false;
        for (unsigned e = 0; e < edits; ++e) mutated = mutate(child, rng) || mutated;
        if (!mutated) continue;
        if (!generation_digests.insert(spec_digest(child.spec)).second) continue;
        proposals.push_back(std::move(child));
      }
    }
    result.proposals += proposals.size();
    if (proposals.empty()) continue;

    // 2. Parallel build: SI set (molecule enumeration through the memo —
    // untouched graphs never reschedule), fingerprint, area, speedup bound.
    std::vector<Slot> slots(proposals.size());
    pool->parallel_for(proposals.size(), [&](std::size_t i) {
      try {
        SpecialInstructionSet set = config::build_platform(proposals[i].spec, memo);
        Slot& slot = slots[i];
        slot.fp = fingerprint(set);
        slot.slices = design_slices(proposals[i].spec);
        // Upper bound on any selection's speedup: every SI always at the
        // fastest molecule that fits the widest AC budget (select/selection.h
        // best_case_latency is a sound floor per execution).
        Cycles ideal = overhead_cycles;
        for (SiId si = 0; si < set.si_count(); ++si)
          ideal += (si < si_executions.size() ? si_executions[si] : 0) *
                   best_case_latency(set, si, max_budget);
        slot.bound = static_cast<double>(result.reference_cycles) /
                     static_cast<double>(std::max<Cycles>(ideal, 1));
        slot.set.emplace(std::move(set));
        slot.valid = true;
      } catch (const std::logic_error&) {
        // Candidate violates an SI-set invariant (e.g. a molecule no faster
        // than its trap): drop it.
      }
    });

    // 3. Serial triage in index order: fingerprint dedupe, cache lookup,
    // early abandon against the current front, evaluation budget.
    std::vector<std::optional<EvalResult>> scored(proposals.size());
    std::vector<std::size_t> replay_list;
    std::set<std::uint64_t> generation_fps;
    for (std::size_t i = 0; i < proposals.size(); ++i) {
      Slot& slot = slots[i];
      if (!slot.valid) {
        ++result.invalid;
        continue;
      }
      if (!generation_fps.insert(slot.fp).second) continue;  // same observable ISA
      if (const auto hit = cache->lookup(slot.fp, ctx)) {
        ++result.cache_hits;
        scored[i] = *hit;
        continue;
      }
      if (front.dominates(slot.slices, slot.bound)) {
        ++result.abandoned;
        continue;
      }
      if (result.replays + replay_list.size() >= options.budget) continue;
      replay_list.push_back(i);
    }

    // 4. Parallel replay of the cache misses that survived the bound.
    pool->parallel_for(replay_list.size(), [&](std::size_t j) {
      const std::size_t i = replay_list[j];
      scored[i] = evaluate_set(*slots[i].set, trace, result.reference_cycles, seeds, options,
                               slots[i].slices, ReplayMode::kBatched, /*decision_cache=*/true);
    });
    result.replays += replay_list.size();
    for (const std::size_t i : replay_list) cache->insert(slots[i].fp, ctx, *scored[i]);

    // 5. Serial commit: front + survivor population.
    for (std::size_t i = 0; i < proposals.size(); ++i) {
      if (!scored[i].has_value()) continue;
      front.insert(ParetoPoint{scored[i]->slices, scored[i]->mean_speedup, slots[i].fp});
      survivors.push_back(DseCandidate{std::move(proposals[i]), slots[i].fp, *scored[i]});
    }
    std::sort(survivors.begin(), survivors.end(),
              [](const DseCandidate& a, const DseCandidate& b) {
                if (a.eval.mean_speedup != b.eval.mean_speedup)
                  return a.eval.mean_speedup > b.eval.mean_speedup;
                if (a.eval.slices != b.eval.slices) return a.eval.slices < b.eval.slices;
                return a.fingerprint < b.fingerprint;
              });
    std::set<std::uint64_t> kept;
    std::erase_if(survivors,
                  [&kept](const DseCandidate& c) { return !kept.insert(c.fingerprint).second; });
    if (survivors.size() > options.population) survivors.resize(options.population);
  }

  RISPP_CHECK(!survivors.empty());
  result.best = survivors.front();
  result.front = front.points();
  result.platform_text = config::emit_platform(result.best.point.spec);
  result.discovered_vs_handbuilt =
      result.handbuilt_eval.mean_speedup > 0.0
          ? result.best.eval.mean_speedup / result.handbuilt_eval.mean_speedup
          : 0.0;
  metric_gauge("dse.search.best_speedup").set(result.best.eval.mean_speedup);
  metric_gauge("dse.search.vs_handbuilt").set(result.discovered_vs_handbuilt);
  return result;
}

}  // namespace rispp::dse
