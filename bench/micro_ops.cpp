// Micro-benchmarks (google-benchmark): the hot operations of the run-time
// system and of the workload kernels. These are host-CPU numbers — they
// bound simulator throughput, not the modelled hardware.
#include <benchmark/benchmark.h>

#include "alg/molecule.h"
#include "base/metrics.h"
#include "base/parallel.h"
#include "base/prng.h"
#include "base/trace_event.h"
#include "baselines/molen.h"
#include "bench/common.h"
#include "config/h264_platform.h"
#include "dpg/enumerate.h"
#include "dpg/makespan_memo.h"
#include "dse/design_point.h"
#include "dse/engine.h"
#include "dse/pareto.h"
#include "dpg/list_scheduler.h"
#include "fleet/session_batch.h"
#include "fleet/spec.h"
#include "h264/workload.h"
#include "h264/interpolate.h"
#include "h264/kernels.h"
#include "h264/motion_search.h"
#include "h264/synthetic_video.h"
#include "h264/transform.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "rtm/tenant_sim.h"
#include "sched/hef.h"
#include "sched/registry.h"
#include "select/selection.h"
#include "sim/executor.h"

namespace {

using namespace rispp;

const SpecialInstructionSet& h264_set() {
  static const SpecialInstructionSet set = h264sis::build_h264_si_set();
  return set;
}

void BM_MoleculeJoin(benchmark::State& state) {
  const Molecule a{1, 2, 0, 4, 1, 0, 2, 3, 0, 1, 2, 0, 1};
  const Molecule b{2, 0, 3, 1, 0, 2, 1, 0, 4, 0, 1, 2, 0};
  for (auto _ : state) benchmark::DoNotOptimize(join(a, b));
}
BENCHMARK(BM_MoleculeJoin);

void BM_MoleculeMissing(benchmark::State& state) {
  const Molecule a{1, 2, 0, 4, 1, 0, 2, 3, 0, 1, 2, 0, 1};
  const Molecule b{2, 0, 3, 1, 0, 2, 1, 0, 4, 0, 1, 2, 0};
  for (auto _ : state) benchmark::DoNotOptimize(missing(a, b));
}
BENCHMARK(BM_MoleculeMissing);

// In-place counterparts of the two ops above: the ratio to BM_MoleculeJoin /
// BM_MoleculeMissing is the allocation cost the decision path no longer pays.
void BM_MoleculeJoinInto(benchmark::State& state) {
  const Molecule a{1, 2, 0, 4, 1, 0, 2, 3, 0, 1, 2, 0, 1};
  const Molecule b{2, 0, 3, 1, 0, 2, 1, 0, 4, 0, 1, 2, 0};
  Molecule acc = a;
  for (auto _ : state) {
    join_into(acc, b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_MoleculeJoinInto);

void BM_MoleculeMissingInto(benchmark::State& state) {
  const Molecule a{1, 2, 0, 4, 1, 0, 2, 3, 0, 1, 2, 0, 1};
  const Molecule b{2, 0, 3, 1, 0, 2, 1, 0, 4, 0, 1, 2, 0};
  Molecule out;
  for (auto _ : state) {
    missing_into(out, a, b);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MoleculeMissingInto);

// SATD's lookup at four availabilities: 0 = nothing loaded (no fit, the
// whole walk), 1 = its smallest molecule (the slowest fit, near the walk's
// end), 2 = every count at 2, 3 = its full sup (the fastest molecule fits:
// the early exit).
void BM_FastestAvailable(benchmark::State& state) {
  const auto& set = h264_set();
  const SiId satd = set.find("SATD").value();
  const SpecialInstruction& si = set.si(satd);
  Molecule avail(set.atom_type_count());
  switch (state.range(0)) {
    case 0:
      state.SetLabel("nothing loaded");
      break;
    case 1:
      avail = si.molecules.front().atoms;
      state.SetLabel("smallest molecule");
      break;
    case 2:
      for (std::size_t t = 0; t < avail.dimension(); ++t) avail[t] = 2;
      state.SetLabel("all counts 2");
      break;
    default:
      for (const MoleculeImpl& m : si.molecules) join_into(avail, m.atoms);
      state.SetLabel("full sup");
      break;
  }
  for (auto _ : state) benchmark::DoNotOptimize(set.fastest_available(satd, avail));
}
BENCHMARK(BM_FastestAvailable)->DenseRange(0, 3);

void BM_ListScheduleSatd(benchmark::State& state) {
  const auto& set = h264_set();
  const SiId satd = set.find("SATD").value();
  const Molecule& instances = set.si(satd).molecules.front().atoms;
  for (auto _ : state)
    benchmark::DoNotOptimize(molecule_latency(set.si(satd).graph, instances));
}
BENCHMARK(BM_ListScheduleSatd);

void BM_EnumerateMoleculesSatd(benchmark::State& state) {
  const auto& set = h264_set();
  const SiId satd = set.find("SATD").value();
  EnumerationOptions options;
  // The platform's design-time caps (zero caps would mean occurrence-count
  // caps: a ~500K-point grid — a design-space-exploration job, not a micro
  // benchmark).
  options.instance_caps = Molecule(set.atom_type_count());
  const auto qsub = set.library().find("QSub").value();
  const auto had = set.library().find("HadCore").value();
  const auto sav = set.library().find("SAV").value();
  const auto repack = set.library().find("Repack").value();
  options.instance_caps[qsub] = 4;
  options.instance_caps[had] = 6;
  options.instance_caps[sav] = 3;
  options.instance_caps[repack] = 2;
  for (auto _ : state)
    benchmark::DoNotOptimize(enumerate_molecules(set.si(satd).graph, options));
}
BENCHMARK(BM_EnumerateMoleculesSatd)->Unit(benchmark::kMillisecond);

ScheduleRequest me_request(const SpecialInstructionSet& set) {
  ScheduleRequest req;
  req.set = &set;
  req.expected_executions.assign(set.si_count(), 0);
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  req.selected = {SiRef{sad, 2},
                  SiRef{satd, static_cast<MoleculeId>(set.si(satd).molecules.size() - 1)}};
  req.expected_executions[sad] = 24'000;
  req.expected_executions[satd] = 3'600;
  req.available = Molecule(set.atom_type_count());
  return req;
}

void BM_HefScheduleMeHotSpot(benchmark::State& state) {
  const auto& set = h264_set();
  const ScheduleRequest req = me_request(set);
  const HefScheduler hef;
  for (auto _ : state) benchmark::DoNotOptimize(hef.schedule(req));
}
BENCHMARK(BM_HefScheduleMeHotSpot);

void BM_SchedulerStrategies(benchmark::State& state) {
  static const std::vector<std::string> names = scheduler_names();
  const auto& set = h264_set();
  const ScheduleRequest req = me_request(set);
  const auto scheduler = make_scheduler(names[static_cast<std::size_t>(state.range(0))]);
  for (auto _ : state) benchmark::DoNotOptimize(scheduler->schedule(req));
  state.SetLabel(names[static_cast<std::size_t>(state.range(0))]);
}
BENCHMARK(BM_SchedulerStrategies)->DenseRange(0, 3);

void BM_SelectMolecules(benchmark::State& state) {
  const auto& set = h264_set();
  SelectionRequest req;
  req.set = &set;
  req.expected_executions.assign(set.si_count(), 500);
  for (SiId si = 0; si < set.si_count(); ++si) req.hot_spot_sis.push_back(si);
  req.container_count = static_cast<unsigned>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(select_molecules(req));
  state.SetLabel(std::to_string(state.range(0)) + " ACs");
}
BENCHMARK(BM_SelectMolecules)->Arg(8)->Arg(16)->Arg(24);

// The original O(rounds·|SIs|²·molecules·dim) greedy kept as the fuzz
// oracle; the ratio to BM_SelectMolecules is the incremental rewrite's win.
void BM_SelectMoleculesReference(benchmark::State& state) {
  const auto& set = h264_set();
  SelectionRequest req;
  req.set = &set;
  req.expected_executions.assign(set.si_count(), 500);
  for (SiId si = 0; si < set.si_count(); ++si) req.hot_spot_sis.push_back(si);
  req.container_count = static_cast<unsigned>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(select_molecules_reference(req));
  state.SetLabel(std::to_string(state.range(0)) + " ACs");
}
BENCHMARK(BM_SelectMoleculesReference)->Arg(8)->Arg(16)->Arg(24);

// The full hot-spot-entry decision path (selection + scheduling + load-queue
// rebuild): Arg 0 with the decision cache off (every entry runs the
// pipeline), Arg 1 on (every entry after the first replays the memoized
// result), Arg 2 on but missing the memo at every entry: two hot spots share
// the SI list and the ready atoms, their forecasts differ slightly, and a
// one-entry memo only ever holds the other hot spot's decision, so each
// entry re-runs the path store's recorded picks (DESIGN §6.2; the
// "replayed" counter is the share of entries that did). `now` stays at 0 so
// the port never retires its first load and the ready-atom state — part of
// the cache key — stays fixed; static seeds keep each forecast fixed.
void BM_HotSpotEntryDecision(benchmark::State& state) {
  const auto& set = h264_set();
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  const bool alternate = state.range(0) == 2;
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, satd}, 8}};
  if (alternate) trace.hot_spots.push_back(HotSpotInfo{"ME'", {sad, satd}, 8});
  for (HotSpotId hs = 0; hs < trace.hot_spots.size(); ++hs) {
    HotSpotInstance inst;
    inst.hot_spot = hs;
    inst.entry_overhead = 1000;
    trace.instances.push_back(std::move(inst));
  }

  const HefScheduler hef;
  DecisionMemo one_entry(1, 1, DecisionMemo::Scope::kPrivate);
  RtmConfig config;
  config.container_count = 17;
  config.scheduler = &hef;
  config.forecast_mode = ForecastMode::kStaticSeeds;
  config.enable_decision_cache = state.range(0) != 0;
  if (alternate) config.decision_memo = &one_entry;
  RunTimeManager rtm(&set, trace.hot_spots.size(), config);
  rtm.seed_forecast(0, sad, 87'500);
  rtm.seed_forecast(0, satd, 12'500);
  if (alternate) {
    rtm.seed_forecast(1, sad, 87'600);
    rtm.seed_forecast(1, satd, 12'400);
  }
  const MetricCounter& replays = metric_counter("rtm.decision_cache.replays");
  const std::uint64_t replays_before = replays.value();
  std::size_t instance = 0;
  for (auto _ : state) {
    rtm.on_hot_spot_entry(trace, instance, 0);
    rtm.on_hot_spot_exit(0);
    if (alternate) instance ^= 1;
  }
  state.counters["replayed"] = benchmark::Counter(
      static_cast<double>(replays.value() - replays_before), benchmark::Counter::kAvgIterations);
  state.SetLabel(alternate ? "memo misses" : config.enable_decision_cache ? "cached" : "uncached");
}
BENCHMARK(BM_HotSpotEntryDecision)->Arg(0)->Arg(1)->Arg(2);

// The tracing-off cost every instrumentation site pays: a relaxed atomic
// load plus a branch at span construction and destruction. The "zero-cost"
// claim of the tracer is this number staying at a few nanoseconds.
void BM_TraceSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    RISPP_TRACE_SPAN(TraceTrack::kRtm, "bench span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanDisabled);

// One relaxed fetch_add: the always-on cost of a registry counter bump.
void BM_MetricCounterAdd(benchmark::State& state) {
  static MetricCounter& counter = metric_counter("bench.micro_counter");
  for (auto _ : state) {
    counter.add();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MetricCounterAdd);

void BM_Dct4x4RoundTrip(benchmark::State& state) {
  int in[16], coeff[16], out[16];
  for (int i = 0; i < 16; ++i) in[i] = (i * 37) % 255 - 128;
  for (auto _ : state) {
    h264::dct4x4(in, coeff);
    h264::idct4x4(coeff, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Dct4x4RoundTrip);

// Scalar vs SIMD kernel backends. Arg(0) is the Plane-addressed scalar
// reference, which clamps every reference access; Arg(1) the row-pointer
// kernel the SIMD encode path runs on a padded reference plane. The
// items/sec ratio is the per-kernel speedup of the cold trace-generation
// path.

h264::Plane random_plane(std::uint64_t seed, int width = 64, int height = 64) {
  Xoshiro256 rng(seed);
  h264::Plane p(width, height);
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x) p.at(x, y) = static_cast<h264::Pixel>(rng.bounded(256));
  return p;
}

h264::PaddedPlane padded(const h264::Plane& p) {
  h264::PaddedPlane out(p.width(), p.height(), 16);
  out.replicate(p);
  return out;
}

void BM_Sad16x16Backend(benchmark::State& state) {
  const h264::Plane a = random_plane(11), b = random_plane(12);
  const h264::PaddedPlane pb = padded(b);
  const bool rows = state.range(0) != 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(rows ? h264::sad_16x16(a.row(16) + 16, a.width(),
                                                    pb.block16(17, 15), pb.stride())
                                  : h264::sad_16x16_scalar(a, 16, 16, b, 17, 15));
  state.SetLabel(rows ? "rows" : "scalar");
}
BENCHMARK(BM_Sad16x16Backend)->Arg(0)->Arg(1);

void BM_Satd16x16Backend(benchmark::State& state) {
  const h264::Plane a = random_plane(13), b = random_plane(14);
  const h264::PaddedPlane pb = padded(b);
  const bool rows = state.range(0) != 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(rows ? h264::satd_16x16(a.row(16) + 16, a.width(),
                                                     pb.block16(17, 15), pb.stride())
                                  : h264::satd_16x16_scalar(a, 16, 16, b, 17, 15));
  state.SetLabel(rows ? "rows" : "scalar");
}
BENCHMARK(BM_Satd16x16Backend)->Arg(0)->Arg(1);

// Builds one CIF reference frame's padded and half-pel planes (default
// search range): the SIMD path's per-frame cost in place of per-block
// filtering.
void BM_RefPlanesBuild(benchmark::State& state) {
  const h264::Plane src = random_plane(17, h264::kCifWidth, h264::kCifHeight);
  const h264::MotionSearchConfig search;
  h264::RefPlanes planes;
  for (auto _ : state) {
    planes.build(src, search.search_range);
    benchmark::DoNotOptimize(planes.full().row(0));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RefPlanesBuild)->Unit(benchmark::kMicrosecond);

void BM_Dct4x4Backend(benchmark::State& state) {
  int in[16], coeff[16], out[16];
  for (int i = 0; i < 16; ++i) in[i] = (i * 37) % 255 - 128;
  const bool simd = state.range(0) != 0;
  for (auto _ : state) {
    if (simd) {
      h264::dct4x4_simd(in, coeff);
      h264::idct4x4_simd(coeff, out);
    } else {
      h264::dct4x4_scalar(in, coeff);
      h264::idct4x4_scalar(coeff, out);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(simd ? "simd" : "scalar");
}
BENCHMARK(BM_Dct4x4Backend)->Arg(0)->Arg(1);

// Work-stealing throughput on deliberately uneven tasks: index i costs
// O((i % 32)^2), so round-robin chunk dealing leaves some deques heavy and
// the light owners must steal to keep busy. items/sec at N threads vs 1
// thread shows the pool's load-balancing efficiency.
void BM_PoolStealUneven(benchmark::State& state) {
  constexpr std::size_t kTasks = 512;
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  std::vector<std::uint64_t> out(kTasks);
  for (auto _ : state) {
    pool.parallel_for(kTasks, [&](std::size_t i) {
      const std::uint64_t reps = (i % 32) * (i % 32) * 8 + 1;
      std::uint64_t acc = i;
      for (std::uint64_t r = 0; r < reps; ++r) acc = acc * 6364136223846793005ULL + 1;
      out[i] = acc;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTasks);
  state.SetLabel(std::to_string(pool.thread_count()) + " threads");
}
BENCHMARK(BM_PoolStealUneven)
    ->Arg(1)
    ->Arg(2)
    ->Arg(static_cast<int>(parallel_thread_count()))
    ->Unit(benchmark::kMicrosecond);

void BM_SyntheticFrame(benchmark::State& state) {
  h264::VideoConfig config;
  h264::SyntheticVideo video(config);
  for (auto _ : state) benchmark::DoNotOptimize(video.next());
}
BENCHMARK(BM_SyntheticFrame)->Unit(benchmark::kMillisecond);

void BM_SimulatorThroughput(benchmark::State& state) {
  // Events per second of the cycle-level executor on a dense ME-style trace.
  const auto& set = h264_set();
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, satd}, 8}};
  HotSpotInstance inst;
  inst.hot_spot = 0;
  inst.entry_overhead = 1000;
  for (int i = 0; i < 100'000; ++i) inst.append(i % 8 == 7 ? satd : sad);
  trace.instances.push_back(std::move(inst));

  const HefScheduler hef;
  for (auto _ : state) {
    RtmConfig config;
    config.container_count = 17;
    config.scheduler = &hef;
    RunTimeManager rtm(&set, 1, config);
    rtm.seed_forecast(0, sad, 87'500);
    rtm.seed_forecast(0, satd, 12'500);
    benchmark::DoNotOptimize(run_trace(trace, rtm));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100'000);
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

const bench::BenchContext& cached_context() {
  static const bench::BenchContext ctx;
  return ctx;
}

// Scalar vs run-batched replay of the cached H.264 bench trace (items =
// SI execution events) through each reconfigurable backend: the HEF RTM,
// Molen and OneChip, all 17 ACs. The ratio of a backend's two items/sec
// rates is the fast-forward speedup of its port-quiet walk; `runs_stepped`
// is the walk's work per replay, the runs it steps one at a time
// (sim.replay.runs_stepped; the scalar path steps none).
void BM_TraceReplay(benchmark::State& state) {
  const auto& ctx = cached_context();
  const MetricCounter& runs_stepped = metric_counter("sim.replay.runs_stepped");
  const std::uint64_t stepped_before = runs_stepped.value();
  const auto mode = state.range(0) == 0 ? ReplayMode::kScalar : ReplayMode::kBatched;
  constexpr unsigned kContainers = 17;
  const HefScheduler hef;
  const auto replay = [&](auto&& backend) {
    h264::seed_default_forecasts(ctx.set, backend);
    benchmark::DoNotOptimize(run_trace(ctx.trace, backend, nullptr, mode));
  };
  for (auto _ : state) {
    if (state.range(1) == 0) {
      RtmConfig config;
      config.container_count = kContainers;
      config.scheduler = &hef;
      replay(RunTimeManager(&ctx.set, ctx.trace.hot_spots.size(), config));
    } else if (state.range(1) == 1) {
      MolenConfig config;
      config.container_count = kContainers;
      replay(MolenBackend(&ctx.set, ctx.trace.hot_spots.size(), config));
    } else {
      OneChipConfig config;
      config.container_count = kContainers;
      replay(OneChipBackend(&ctx.set, ctx.trace.hot_spots.size(), config));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ctx.trace.total_si_executions()));
  state.counters["runs_stepped"] = static_cast<double>(runs_stepped.value() - stepped_before) /
                                   static_cast<double>(state.iterations());
  static const char* const kBackend[] = {"HEF", "Molen", "OneChip"};
  state.SetLabel(std::string(mode == ReplayMode::kScalar ? "scalar " : "batched ") +
                 kBackend[state.range(1)]);
}
BENCHMARK(BM_TraceReplay)->ArgsProduct({{0, 1}, {0, 1, 2}})->Unit(benchmark::kMillisecond);

// parallel_for scaling: the same cell workload fanned over 1, 2 and N
// threads. Cells are small RTM runs on a short synthetic trace, matching
// the sweep harness's use of the pool.
void BM_ParallelFor(benchmark::State& state) {
  const auto& set = h264_set();
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, satd}, 8}};
  HotSpotInstance inst;
  inst.hot_spot = 0;
  inst.entry_overhead = 1000;
  for (int i = 0; i < 20'000; ++i) inst.append(i % 8 == 7 ? satd : sad);
  trace.instances.push_back(std::move(inst));

  constexpr std::size_t kCells = 16;
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  const HefScheduler hef;
  std::vector<Cycles> cycles(kCells);
  for (auto _ : state) {
    pool.parallel_for(kCells, [&](std::size_t i) {
      RtmConfig config;
      config.container_count = static_cast<unsigned>(5 + i);
      config.scheduler = &hef;
      RunTimeManager rtm(&set, 1, config);
      rtm.seed_forecast(0, sad, 17'500);
      rtm.seed_forecast(0, satd, 2'500);
      cycles[i] = run_trace(trace, rtm).total_cycles;
    });
    benchmark::DoNotOptimize(cycles.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kCells);
  state.SetLabel(std::to_string(pool.thread_count()) + " threads");
}
BENCHMARK(BM_ParallelFor)
    ->Arg(1)
    ->Arg(2)
    ->Arg(static_cast<int>(parallel_thread_count()))
    ->Unit(benchmark::kMillisecond);

// Instance-major fleet stepping (fleet::SessionBatch steps a block's
// TraceReplays one shared instance at a time) vs the per-object loop (one
// full run_trace per session, back to back) over the same 32 identical
// short sessions. Items = sessions; the batch should win on cache residency
// (the shared trace instance is streamed once per block, not once per
// session) plus the cross-session decision cache.
void fleet_stepping_sessions(std::vector<fleet::SessionSpec>& specs) {
  fleet::SessionSpec spec;
  spec.content = fleet::Content::kH264;
  spec.frames = 1;
  spec.width = 96;
  spec.height = 64;
  specs.assign(32, spec);
}

void BM_FleetSoAStepping(benchmark::State& state) {
  std::vector<fleet::SessionSpec> specs;
  fleet_stepping_sessions(specs);
  fleet::TraceRepository repo;
  repo.get(specs.front());  // pre-generate: measure stepping, not encoding
  ThreadPool pool(1);
  for (auto _ : state) {
    DecisionMemo cache(1 << 12, 1);
    fleet::FleetOptions options;
    options.traces = &repo;
    options.pool = &pool;
    options.shared_cache = &cache;
    options.block_size = static_cast<unsigned>(state.range(0));
    fleet::SessionBatch batch(specs, options);
    batch.run();
    benchmark::DoNotOptimize(batch.result(specs.size() - 1).total_cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(specs.size()));
  state.SetLabel("block " + std::to_string(state.range(0)));
}
BENCHMARK(BM_FleetSoAStepping)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_FleetPerObjectStepping(benchmark::State& state) {
  std::vector<fleet::SessionSpec> specs;
  fleet_stepping_sessions(specs);
  fleet::TraceRepository repo;
  const fleet::TraceEntry& entry = repo.get(specs.front());
  const HefScheduler hef;
  for (auto _ : state) {
    Cycles last = 0;
    for (const fleet::SessionSpec& spec : specs) {
      RtmConfig config;
      config.container_count = spec.container_count;
      config.scheduler = &hef;
      RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), config);
      h264::seed_default_forecasts(entry.set, rtm);
      last = run_trace(entry.trace, rtm).total_cycles;
    }
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_FleetPerObjectStepping)->Unit(benchmark::kMillisecond);

// Cross-session steal latency: blocks deliberately dealt unevenly (one
// worker owns everything) so every other worker must steal whole session
// blocks. Items = sessions; compare the 1-thread rate (no stealing) to the
// N-thread rate to read the steal overhead per block.
void BM_FleetCrossSessionSteal(benchmark::State& state) {
  std::vector<fleet::SessionSpec> specs;
  fleet_stepping_sessions(specs);
  fleet::TraceRepository repo;
  repo.get(specs.front());
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    DecisionMemo cache(1 << 12, 4);
    fleet::FleetOptions options;
    options.traces = &repo;
    options.pool = &pool;
    options.shared_cache = &cache;
    options.block_size = 2;  // many small blocks → many steal opportunities
    fleet::SessionBatch batch(specs, options);
    batch.run();
    benchmark::DoNotOptimize(batch.result(specs.size() - 1).total_cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(specs.size()));
  state.SetLabel(std::to_string(pool.thread_count()) + " threads");
}
BENCHMARK(BM_FleetCrossSessionSteal)
    ->Arg(1)
    ->Arg(2)
    ->Arg(static_cast<int>(parallel_thread_count()))
    ->Unit(benchmark::kMillisecond);

// Min-clock pick for the co-simulation: one pop+push cycle on a heap of 64
// tenants (kMaxTenants) — the per-epoch cost that replaced the O(n) scan in
// run_tenants. Deterministic clock stream from a seeded PRNG.
void BM_TenantMinHeapPick(benchmark::State& state) {
  Xoshiro256 prng(0xc0513);
  MinClockHeap heap;
  heap.reset(FabricArbiter::kMaxTenants);
  for (std::uint32_t i = 0; i < FabricArbiter::kMaxTenants; ++i)
    heap.push({prng.next() % 1'000'000, i});
  for (auto _ : state) {
    MinClockHeap::Item item = heap.pop();
    item.clock += 1 + prng.next() % 4'096;
    heap.push(item);
    benchmark::DoNotOptimize(heap.top().clock);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TenantMinHeapPick);

// End-to-end co-simulation of one device, fast-forward vs instance-stepped
// reference: the first device of the perfbench fleet_contended workload at
// seed 0 — 8 tenants of 8 ACs each, floor 2, weighted partition, monitored
// forecasts, 2-8-frame H.264/JPEG sessions under HEF and SJF. Static setup
// outside the timed loop; each iteration rebuilds the arbiter + RTMs (cheap)
// and re-runs the co-sim.
void BM_CosimFastForward(benchmark::State& state) {
  constexpr std::size_t kTenants = 8;
  constexpr unsigned kAcsPerTenant = 8;
  fleet::FleetSpec fleet_spec;
  fleet_spec.sessions = 2048;
  fleet_spec.schedulers = {"HEF", "SJF"};
  std::vector<fleet::SessionSpec> specs = fleet::expand_fleet_spec(fleet_spec);
  specs.resize(kTenants);
  fleet::TraceRepository repo;
  std::vector<const fleet::TraceEntry*> entries;
  for (const auto& spec : specs) entries.push_back(&repo.get(spec));
  const CosimMode mode =
      state.range(0) == 0 ? CosimMode::kReference : CosimMode::kFastForward;
  for (auto _ : state) {
    ArbiterConfig arb_config;
    arb_config.total_containers = static_cast<unsigned>(kTenants) * kAcsPerTenant;
    arb_config.partition = PartitionMode::kBenefitWeighted;
    FabricArbiter arbiter(arb_config);
    std::vector<std::unique_ptr<AtomScheduler>> schedulers(kTenants);
    std::vector<std::unique_ptr<RunTimeManager>> rtms(kTenants);
    std::vector<TenantRun> runs(kTenants);
    for (std::size_t i = 0; i < kTenants; ++i) {
      TenantConfig tenant;
      tenant.quota = kAcsPerTenant;
      tenant.floor = 2;
      runs[i].tenant = arbiter.add_tenant(tenant);
    }
    for (std::size_t i = 0; i < kTenants; ++i) {
      schedulers[i] = make_scheduler(specs[i].scheduler);
      RtmConfig config;
      config.scheduler = schedulers[i].get();
      config.forecast_mode = specs[i].forecast_mode;
      config.arbiter = &arbiter;
      config.tenant = runs[i].tenant;
      rtms[i] = std::make_unique<RunTimeManager>(
          &entries[i]->set, entries[i]->trace.hot_spots.size(), config);
      seed_forecasts(*rtms[i], entries[i]->seeds);
      runs[i].trace = &entries[i]->trace;
      runs[i].rtm = rtms[i].get();
    }
    const auto results = run_tenants(arbiter, std::span<TenantRun>(runs), mode);
    benchmark::DoNotOptimize(results.front().total_cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTenants));
  state.SetLabel(state.range(0) == 0 ? "reference" : "fast-forward");
}
BENCHMARK(BM_CosimFastForward)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// A typical mid-search DSE candidate: the degraded seed of the hand-built
// platform plus a few work-preserving mutations.
const config::PlatformSpec& dse_candidate_spec() {
  static const config::PlatformSpec spec = [] {
    dse::DesignPoint point = dse::degraded_seed(config::h264_platform_spec());
    Xoshiro256 rng(42);
    for (int i = 0; i < 6; ++i) dse::mutate(point, rng);
    return point.spec;
  }();
  return spec;
}

// One DSE candidate evaluation: the engine fast path (MakespanMemo-backed
// build + run-batched replay, decision cache on) vs the naive full
// re-simulation (no memo, scalar replay, cache off). Items = candidates; the
// rate ratio is the per-candidate win bench/dse_search asserts at >= 10x.
void BM_DseEvaluateCandidate(benchmark::State& state) {
  const auto& ctx = cached_context();
  const config::PlatformSpec& spec = dse_candidate_spec();
  const Cycles reference = dse::software_reference_cycles(ctx.set, ctx.trace);
  MakespanMemo memo;
  dse::DseOptions options;
  options.makespan_memo = &memo;
  const bool fast = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fast ? dse::evaluate_candidate(spec, ctx.trace, reference, options)
             : dse::evaluate_candidate_naive(spec, ctx.trace, reference, options));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(fast ? "memoized+batched" : "naive");
}
BENCHMARK(BM_DseEvaluateCandidate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Molecule-table construction for a candidate spec: the memo-less full
// list-scheduling pass vs the warm-MakespanMemo steady state (every graph a
// mutation left untouched hits the memo instead of rescheduling) — the
// incremental latency re-estimation the search's build stage rides.
void BM_IncrementalLatency(benchmark::State& state) {
  const config::PlatformSpec& spec = dse_candidate_spec();
  const bool memoized = state.range(0) != 0;
  MakespanMemo memo;
  if (memoized) config::build_platform(spec, &memo);  // warm
  for (auto _ : state)
    benchmark::DoNotOptimize(config::build_platform(spec, memoized ? &memo : nullptr));
  state.SetLabel(memoized ? "warm memo" : "full reschedule");
}
BENCHMARK(BM_IncrementalLatency)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Pareto-front maintenance: a fixed stream of 256 random (slices, speedup)
// points through insert() — dominance scan, sorted insertion, eviction of
// newly-dominated members. Items = insert calls.
void BM_ParetoInsert(benchmark::State& state) {
  Xoshiro256 rng(0xd5e);
  std::vector<dse::ParetoPoint> points(256);
  for (auto& p : points) {
    p.slices = 100 + static_cast<unsigned>(rng.bounded(900));
    p.speedup = 1.0 + static_cast<double>(rng.bounded(3000)) / 100.0;
    p.fingerprint = rng.next();
  }
  for (auto _ : state) {
    dse::ParetoFront front;
    for (const auto& p : points) front.insert(p);
    benchmark::DoNotOptimize(front.points().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_ParetoInsert);

}  // namespace

BENCHMARK_MAIN();
