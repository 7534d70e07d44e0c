#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "base/prng.h"
#include "baselines/molen.h"
#include "baselines/software_only.h"
#include "config/h264_platform.h"
#include "dpg/makespan_memo.h"
#include "dse/engine.h"
#include "fleet/session_batch.h"
#include "fleet/spec.h"
#include "fleet/tenant_fleet.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"

namespace perfbench {

using namespace rispp;
namespace fs = std::filesystem;

namespace {

// Seed 0 reproduces the repository's default inputs everywhere: the
// synthetic video's 0x5EED content, FleetSpec::seed 1 and DseOptions::seed 1.
std::uint64_t video_seed(std::uint64_t seed) { return 0x5EED + seed; }

fs::path fresh_dir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Picks `count` distinct indices below `n` from a seeded PRNG.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count, std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  Xoshiro256 rng(seed ^ 0xC0FFEEULL);
  count = std::min(count, n);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.bounded(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

/// Cold trace set-up shared by h264_sweep and dse_search: encode, save into
/// the private directory, reload — each step timed into the ledger. The
/// encode runs on one thread: on a 4-vCPU VM with shared cores, the
/// wavefront encoder's yield-spinning rows made a 4-thread 140-frame encode
/// take 3.0 to 7.3 s from run to run against ~3.5 s on one thread, which
/// swamped setup_s.
WorkloadTrace generate_save_load(const SpecialInstructionSet& set,
                                 h264::WorkloadConfig config, const fs::path& dir,
                                 SetupLedger& ledger) {
  config.encode_threads = 1;
  const fs::path path = fresh_dir(dir) / "trace.rtrc";
  auto start = Clock::now();
  const WorkloadTrace generated = h264::generate_h264_workload(set, config).trace;
  ledger.generate_s.push_back(seconds_since(start));

  start = Clock::now();
  save_trace_file(generated, path);
  ledger.save_s.push_back(seconds_since(start));

  start = Clock::now();
  std::optional<WorkloadTrace> loaded = try_load_trace_file(path);
  ledger.load_s.push_back(seconds_since(start));
  if (!loaded) throw std::runtime_error("saved trace did not reload: " + path.string());

  ledger.file_mb = static_cast<double>(fs::file_size(path)) / (1024.0 * 1024.0);
  double runs = 0.0;
  for (const HotSpotInstance& inst : loaded->instances)
    runs += static_cast<double>(inst.runs.size());
  ledger.runs = runs;
  ledger.executions = static_cast<double>(loaded->total_si_executions());
  fs::remove_all(dir);
  return std::move(*loaded);
}

// ---------------------------------------------------------------------------

class H264Sweep final : public Workload {
 public:
  H264Sweep(std::uint64_t seed, fs::path dir)
      : seed_(seed), dir_(std::move(dir)), set_(h264sis::build_h264_si_set()) {
    for (unsigned acs = 5; acs <= 24; ++acs)
      for (int system = 0; system <= kMolen; ++system) cells_.push_back({system, acs});
  }

  std::string definition() const override {
    return "h264_sweep frames=140 systems=FSFR,ASF,SJF,HEF,Molen acs=5..24";
  }
  int setup_reps() const override { return 3; }

  void setup(SetupLedger& ledger) override {
    h264::WorkloadConfig config;
    config.frames = 140;
    config.video.seed = video_seed(seed_);
    trace_ = generate_save_load(set_, config, dir_, ledger);
  }

  PassOutcome run_pass(ThreadPool& pool, TraceSink* sink) override {
    last_.assign(cells_.size(), SimResult{});
    pool.parallel_for(cells_.size(), [&](std::size_t i) {
      if (sink == nullptr) {
        last_[i] = run_cell(cells_[i], nullptr, nullptr);
        return;
      }
      LayerTimes local;
      last_[i] = run_cell(cells_[i], &local, &sink->entry_ns);
      const std::lock_guard<std::mutex> lock(sink->mutex);
      sink->times.merge(local);
    });
    PassOutcome out;
    out.ops = cells_.size();
    for (const SimResult& r : last_) out.digests.push_back(result_digest(r));
    out.sim_speedup = speedup_vs_molen();
    return out;
  }

  CheckOutcome check() override {
    // Oracle: scalar reference replay with the decision cache off.
    CheckOutcome out;
    for (std::size_t i : sample_indices(cells_.size(), 10, seed_)) {
      const SimResult oracle =
          run_cell(cells_[i], nullptr, nullptr, ReplayMode::kScalar, /*decision_cache=*/false);
      ++out.checked;
      if (result_digest(oracle) != result_digest(last_[i])) ++out.mismatched;
    }
    return out;
  }

  void details(const PassOutcome& pass, double ops_per_s, Report& report) const override {
    constexpr double kPaper = 1.71;  // Table 2: HEF vs Molen, average over 5..24 ACs
    report.detail("cells_per_s", ops_per_s, "cells/s");
    report.detail("speedup_vs_molen", pass.sim_speedup, "x");
    report.detail("speedup_vs_molen.paper", kPaper, "x");
    report.detail("speedup_vs_molen.rel_error", (pass.sim_speedup - kPaper) / kPaper, "ratio");
  }

 private:
  static constexpr int kMolen = 4;  // systems 0..3 index scheduler_names()
  struct Cell {
    int system;
    unsigned acs;
  };

  SimResult run_cell(const Cell& cell, LayerTimes* layers, MetricHistogram* entry_ns,
                     ReplayMode mode = ReplayMode::kBatched, bool decision_cache = true) const {
    const std::size_t hot_spots = trace_.hot_spots.size();
    if (cell.system == kMolen) {
      MolenConfig config;
      config.container_count = cell.acs;
      MolenBackend molen(&set_, hot_spots, config);
      h264::seed_default_forecasts(set_, molen);
      if (layers == nullptr) return run_trace(trace_, molen, nullptr, mode);
      TimedBackend timed(molen, *layers, /*is_rtm=*/false, nullptr);
      return run_trace(trace_, timed, nullptr, mode);
    }
    const auto scheduler = make_scheduler(scheduler_names()[cell.system]);
    RtmConfig config;
    config.container_count = cell.acs;
    config.scheduler = scheduler.get();
    config.enable_decision_cache = decision_cache;
    if (layers == nullptr) {
      RunTimeManager rtm(&set_, hot_spots, config);
      h264::seed_default_forecasts(set_, rtm);
      return run_trace(trace_, rtm, nullptr, mode);
    }
    const TimedScheduler timed_scheduler(*scheduler, *layers);
    config.scheduler = &timed_scheduler;
    RunTimeManager rtm(&set_, hot_spots, config);
    h264::seed_default_forecasts(set_, rtm);
    TimedBackend timed(rtm, *layers, /*is_rtm=*/true, entry_ns);
    return run_trace(trace_, timed, nullptr, mode);
  }

  /// Table 2's headline: mean over 5..24 ACs of Molen cycles / HEF cycles.
  double speedup_vs_molen() const {
    const int hef = 3;  // scheduler_names() order: FSFR, ASF, SJF, HEF
    double sum = 0.0;
    unsigned rows = 0;
    for (std::size_t i = 0; i < cells_.size(); i += kMolen + 1, ++rows)
      sum += static_cast<double>(last_[i + kMolen].total_cycles) /
             static_cast<double>(last_[i + hef].total_cycles);
    return sum / rows;
  }

  std::uint64_t seed_;
  fs::path dir_;
  SpecialInstructionSet set_;
  WorkloadTrace trace_;
  std::vector<Cell> cells_;
  std::vector<SimResult> last_;
};

// ---------------------------------------------------------------------------

/// Shared by both fleet workloads: the seeded session mix and a private,
/// cold-populated trace repository.
class FleetBase : public Workload {
 protected:
  FleetBase(fleet::FleetSpec spec, std::uint64_t seed, fs::path dir)
      : seed_(seed), dir_(std::move(dir)) {
    spec.seed = seed + 1;
    specs_ = fleet::expand_fleet_spec(spec);
  }

  void setup(SetupLedger& ledger) override {
    // The repository's disk cache follows RISPP_TRACE_DIR; pointing it at a
    // fresh private directory makes every repetition cold. Each distinct
    // H.264 trace is first encoded there on one thread, as in
    // generate_save_load: left to itself the repository encodes on the
    // process-wide pool, whose set-up time swung 3x from run to run on a
    // VM with shared cores. The repository then loads those files and
    // generates the (serial) JPEG traces itself.
    setenv("RISPP_TRACE_DIR", fresh_dir(dir_).c_str(), 1);
    double generate_s = 0.0, save_s = 0.0;
    std::set<fs::path> encoded;
    for (const fleet::SessionSpec& spec : specs_) {
      if (spec.content != fleet::Content::kH264) continue;
      h264::WorkloadConfig config;  // mapped from the spec as TraceRepository::get does
      config.frames = spec.frames;
      if (spec.width > 0) config.video.width = spec.width;
      if (spec.height > 0) config.video.height = spec.height;
      config.encode_threads = 1;
      const fs::path path = h264::trace_cache_path(h264_set_, config);
      if (!encoded.insert(path).second) continue;
      auto start = Clock::now();
      const WorkloadTrace trace = h264::generate_h264_workload(h264_set_, config).trace;
      generate_s += seconds_since(start);
      start = Clock::now();
      save_trace_file(trace, path);
      save_s += seconds_since(start);
    }
    ledger.generate_s.push_back(generate_s);
    ledger.save_s.push_back(save_s);

    repo_ = std::make_unique<fleet::TraceRepository>();
    const auto start = Clock::now();
    for (const fleet::SessionSpec& spec : specs_) repo_->get(spec);
    ledger.resolve_s.push_back(seconds_since(start));
    fs::remove_all(dir_);
  }

  std::uint64_t seed_;
  fs::path dir_;
  SpecialInstructionSet h264_set_ = h264sis::build_h264_si_set();
  std::vector<fleet::SessionSpec> specs_;
  std::unique_ptr<fleet::TraceRepository> repo_;
};

class FleetShared final : public FleetBase {
 public:
  FleetShared(std::uint64_t seed, fs::path dir)
      : FleetBase(make_spec(), seed, std::move(dir)) {}

  std::string definition() const override {
    return "fleet_shared sessions=4096 mix=h264:4,jpeg:1 frames=2..8 "
           "schedulers=HEF,SJF acs=8..12 block=8 shared_cache=on";
  }

  PassOutcome run_pass(ThreadPool& pool, TraceSink*) override {
    fleet::SharedDecisionCache cache;  // cold per pass: every pass does the same work
    fleet::FleetOptions options;
    options.shared_cache = &cache;
    options.traces = repo_.get();
    options.pool = &pool;
    const MetricsWindow window;
    auto start = Clock::now();
    batch_ = std::make_unique<fleet::SessionBatch>(specs_, options);
    PassOutcome out;
    out.layer_s["fleet.batch_build_s"] = seconds_since(start);
    start = Clock::now();
    batch_->run();
    out.layer_s["fleet.run_s"] = seconds_since(start);

    std::vector<SimResult> results;
    for (std::size_t s = 0; s < batch_->session_count(); ++s) {
      results.push_back(batch_->result(s));
      out.digests.push_back(result_digest(results.back()));
    }
    out.ops = results.size();
    out.sim_speedup = aggregate_speedup(results);
    const std::uint64_t hits = window.counter("fleet.decision_cache.hits");
    const std::uint64_t lookups = hits + window.counter("fleet.decision_cache.misses");
    out.facts["fleet.memo_hit_rate"] = static_cast<double>(hits) / lookups;
    out.facts["fleet.cross_session_hit_rate"] =
        static_cast<double>(window.counter("fleet.decision_cache.cross_session_hits")) / lookups;
    return out;
  }

  CheckOutcome check() override {
    // Oracle: each sampled session replayed alone through solo run_trace.
    CheckOutcome out;
    for (std::size_t s : sample_indices(batch_->session_count(), 64, seed_)) {
      const fleet::SessionSpec& spec = batch_->spec(s);
      const fleet::TraceEntry& entry = repo_->get(spec);
      const auto scheduler = make_scheduler(spec.scheduler);
      RtmConfig config;
      config.container_count = spec.container_count;
      config.scheduler = scheduler.get();
      config.forecast_mode = spec.forecast_mode;
      RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), config);
      for (HotSpotId hs = 0; hs < entry.seeds.size(); ++hs)
        for (SiId si = 0; si < entry.seeds[hs].size(); ++si)
          if (entry.seeds[hs][si] != 0) rtm.seed_forecast(hs, si, entry.seeds[hs][si]);
      ++out.checked;
      if (result_digest(run_trace(entry.trace, rtm)) != result_digest(batch_->result(s)))
        ++out.mismatched;
    }
    return out;
  }

  void details(const PassOutcome& pass, double ops_per_s, Report& report) const override {
    report.detail("sessions_per_min", ops_per_s * 60.0, "sessions/min");
    report.detail("aggregate_speedup", pass.sim_speedup, "x");
  }

 private:
  static fleet::FleetSpec make_spec() {
    fleet::FleetSpec spec;
    spec.sessions = 4096;
    spec.frames_min = 2;
    spec.frames_max = 8;
    spec.schedulers = {"HEF", "SJF"};
    spec.acs_min = 8;
    spec.acs_max = 12;
    return spec;
  }

  /// Σ software-only cycles / Σ simulated cycles over all sessions. The
  /// software-only baseline is replayed once per distinct trace, on first
  /// use, as run_contended_fleet does for its own report.
  double aggregate_speedup(const std::vector<SimResult>& results) {
    if (software_cycles_.empty()) {
      std::map<const fleet::TraceEntry*, Cycles> per_entry;
      for (const fleet::SessionSpec& spec : specs_) {
        const fleet::TraceEntry& entry = repo_->get(spec);
        const auto [it, fresh] = per_entry.try_emplace(&entry, 0);
        if (fresh) {
          SoftwareOnlyBackend software(&entry.set);
          it->second = run_trace(entry.trace, software).total_cycles;
        }
        software_cycles_.push_back(it->second);
      }
    }
    double software = 0.0, rispp = 0.0;
    for (std::size_t s = 0; s < results.size(); ++s) {
      software += static_cast<double>(software_cycles_[s]);
      rispp += static_cast<double>(results[s].total_cycles);
    }
    return software / rispp;
  }

  std::unique_ptr<fleet::SessionBatch> batch_;
  std::vector<Cycles> software_cycles_;  // per session, filled on first use
};

class FleetContended final : public FleetBase {
 public:
  FleetContended(std::uint64_t seed, fs::path dir)
      : FleetBase(make_spec(), seed, std::move(dir)) {}

  std::string definition() const override {
    return "fleet_contended sessions=2048 mix=h264:4,jpeg:1 frames=2..8 "
           "schedulers=HEF,SJF tenants=8 acs_per_tenant=8 floor=2 partition=weighted";
  }

  PassOutcome run_pass(ThreadPool& pool, TraceSink*) override {
    fleet::ContendedOptions options = contended_options();
    options.pool = &pool;
    const auto start = Clock::now();
    const fleet::ContendedReport report = run_contended_fleet(specs_, options, &last_);
    PassOutcome out;
    out.layer_s["fleet.contended_run_s"] = seconds_since(start);
    for (const SimResult& r : last_) out.digests.push_back(result_digest(r));
    out.ops = last_.size();
    out.sim_speedup = report.aggregate_speedup;
    out.facts["cosim.sim_cycles_p99"] = static_cast<double>(report.sim_cycles_p99);
    return out;
  }

  CheckOutcome check() override {
    // Oracle: whole sampled devices re-simulated with the instance-stepped
    // reference co-simulation. Devices are consecutive spec slices.
    CheckOutcome out;
    ThreadPool serial(1);
    fleet::ContendedOptions options = contended_options();
    options.pool = &serial;
    options.cosim = CosimMode::kReference;
    const std::size_t devices = specs_.size() / kTenants;
    for (std::size_t d : sample_indices(devices, 6, seed_)) {
      const std::vector<fleet::SessionSpec> device(specs_.begin() + d * kTenants,
                                                   specs_.begin() + (d + 1) * kTenants);
      std::vector<SimResult> reference;
      run_contended_fleet(device, options, &reference);
      for (std::size_t t = 0; t < kTenants; ++t) {
        ++out.checked;
        if (result_digest(reference[t]) != result_digest(last_[d * kTenants + t]))
          ++out.mismatched;
      }
    }
    return out;
  }

  void details(const PassOutcome& pass, double ops_per_s, Report& report) const override {
    report.detail("sessions_per_min", ops_per_s * 60.0, "sessions/min");
    report.detail("aggregate_speedup", pass.sim_speedup, "x");
    report.detail("contended_sim_cycles_p99", pass.facts.at("cosim.sim_cycles_p99"), "cycles");
  }

 private:
  static constexpr std::size_t kTenants = 8;

  static fleet::FleetSpec make_spec() {
    fleet::FleetSpec spec;
    spec.sessions = 2048;  // a whole number of 8-tenant devices
    spec.frames_min = 2;
    spec.frames_max = 8;
    spec.schedulers = {"HEF", "SJF"};
    return spec;
  }

  fleet::ContendedOptions contended_options() const {
    fleet::ContendedOptions options;
    options.tenants_per_device = kTenants;
    options.acs_per_tenant = 8;
    options.floor = 2;
    options.partition = PartitionMode::kBenefitWeighted;
    options.traces = repo_.get();
    return options;
  }

  std::vector<SimResult> last_;
};

// ---------------------------------------------------------------------------

class DseSearch final : public Workload {
 public:
  DseSearch(std::uint64_t seed, fs::path dir)
      : seed_(seed), dir_(std::move(dir)), set_(h264sis::build_h264_si_set()),
        handbuilt_(config::h264_platform_spec()) {}

  std::string definition() const override {
    return "dse_search frames=8 platform=table1 generations=16 population=8 "
           "mutations=10 budget=1200 scheduler=HEF acs=8,16";
  }

  int setup_reps() const override { return 16; }  // ~0.15 s each: more reps, steadier median

  void setup(SetupLedger& ledger) override {
    h264::WorkloadConfig config;
    config.frames = 8;
    trace_ = generate_save_load(set_, config, dir_, ledger);
  }

  PassOutcome run_pass(ThreadPool& pool, TraceSink*) override {
    // Fresh memo layers per pass, so every pass searches from cold.
    dse::EvalCache eval_cache;
    MakespanMemo makespan_memo;
    dse::DseOptions options = search_options();
    options.pool = &pool;
    options.eval_cache = &eval_cache;
    options.makespan_memo = &makespan_memo;
    const auto start = Clock::now();
    result_ = run_dse(trace_, handbuilt_, options);
    PassOutcome out;
    out.layer_s["dse.search_s"] = seconds_since(start);
    search_s_ = out.layer_s["dse.search_s"];
    out.ops = result_.cache_hits + result_.abandoned + result_.replays;
    std::uint64_t digest = fingerprint_mix(result_.best.fingerprint, result_.replays);
    for (Cycles c : result_.best.eval.total_cycles) digest = fingerprint_mix(digest, c);
    for (const dse::ParetoPoint& p : result_.front) digest = fingerprint_mix(digest, p.fingerprint);
    out.digests.push_back(digest);
    out.sim_speedup = result_.discovered_vs_handbuilt;
    out.facts["dse.replays"] = static_cast<double>(result_.replays);
    out.facts["dse.abandoned"] = static_cast<double>(result_.abandoned);
    out.facts["dse.eval_cache_hit_rate"] =
        static_cast<double>(result_.cache_hits) / static_cast<double>(out.ops);
    return out;
  }

  CheckOutcome check() override {
    // Oracle: evaluate_candidate_naive (no memo layer, scalar replay,
    // decision cache off) on the best and the hand-built platform, plus
    // fast-vs-naive on a seeded sample of mutants.
    CheckOutcome out;
    const dse::DseOptions options = search_options();
    const Cycles reference = result_.reference_cycles;
    double naive_s = 0.0;
    unsigned naive_evals = 0;
    const auto naive = [&](const config::PlatformSpec& spec) {
      const auto start = Clock::now();
      dse::EvalResult r = dse::evaluate_candidate_naive(spec, trace_, reference, options);
      naive_s += seconds_since(start);
      ++naive_evals;
      return r;
    };
    // The bit-exact contract covers the simulated fields. `slices` is not
    // compared: an eval-cache hit reports the area of the first spec that
    // produced the same ISA fingerprint, which can differ from this spec's
    // (noted on stderr, not a simulation mismatch).
    const auto compare = [&](const char* what, const dse::EvalResult& fast,
                             const dse::EvalResult& oracle) {
      ++out.checked;
      if (fast.slices != oracle.slices)
        std::fprintf(stderr, "dse_search: note: %s reports %u slices, its spec has %u\n", what,
                     fast.slices, oracle.slices);
      if (fast.mean_speedup == oracle.mean_speedup && fast.total_cycles == oracle.total_cycles)
        return;
      ++out.mismatched;
      std::fprintf(stderr, "dse_search: %s differs from evaluate_candidate_naive "
                   "(speedup %.17g vs %.17g)\n", what, fast.mean_speedup, oracle.mean_speedup);
    };
    compare("best", result_.best.eval, naive(result_.best.point.spec));
    compare("hand-built", result_.handbuilt_eval, naive(handbuilt_));
    MakespanMemo memo;
    dse::DseOptions fast_options = options;
    fast_options.makespan_memo = &memo;
    Xoshiro256 rng(seed_ + 0xD5E);
    dse::DesignPoint point = dse::degraded_seed(handbuilt_);
    for (int i = 0; i < 3; ++i) {
      dse::mutate(point, rng);
      compare("sampled mutant", dse::evaluate_candidate(point.spec, trace_, reference, fast_options),
              naive(point.spec));
    }
    // Engine candidates/s over naive candidates/s (bench/dse_search's ratio).
    const double scored = static_cast<double>(result_.cache_hits + result_.abandoned +
                                              result_.replays);
    out.facts["dse.fast_vs_naive"] = (scored / search_s_) / (naive_evals / naive_s);
    return out;
  }

  void details(const PassOutcome& pass, double ops_per_s, Report& report) const override {
    report.detail("candidates_per_s", ops_per_s, "candidates/s");
    report.detail("dse_vs_handbuilt", pass.sim_speedup, "x");
  }

 private:
  dse::DseOptions search_options() const {
    dse::DseOptions options;
    options.seed = seed_ + 1;
    return options;
  }

  std::uint64_t seed_;
  fs::path dir_;
  SpecialInstructionSet set_;
  config::PlatformSpec handbuilt_;
  WorkloadTrace trace_;
  dse::DseResult result_;
  double search_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& scratch_dir) {
  const fs::path dir = fs::path(scratch_dir) / name;
  if (name == "h264_sweep") return std::make_unique<H264Sweep>(seed, dir);
  if (name == "fleet_shared") return std::make_unique<FleetShared>(seed, dir);
  if (name == "fleet_contended") return std::make_unique<FleetContended>(seed, dir);
  if (name == "dse_search") return std::make_unique<DseSearch>(seed, dir);
  return nullptr;
}

}  // namespace perfbench
