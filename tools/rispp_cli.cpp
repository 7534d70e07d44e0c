// rispp — command-line driver for the run-time system.
//
//   rispp describe <platform-file>
//       Parse a textual platform description and print the derived atom
//       table and molecule lists.
//
//   rispp schedule <platform-file> --si NAME[,NAME...] [--acs N] [--scheduler S]
//       Run Molecule selection and the SI Scheduler for one hot spot of the
//       given platform and print the atom loading sequence.
//
//   rispp h264 [--acs N] [--scheduler S|all] [--frames N] [--molen]
//       Run the paper's H.264 workload on the built-in platform and print
//       execution time.
//
//   rispp dse [--min N] [--max N] [--frames N]
//       Design-space exploration over the Atom Container budget on the
//       built-in H.264 platform: per budget, the best scheduler and the
//       speedup vs software — the area/performance trade-off a platform
//       designer reads off before fixing the AC count.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/env.h"
#include "baselines/molen.h"
#include "baselines/software_only.h"
#include "config/platform_parser.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace {

using namespace rispp;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  rispp describe <platform-file>\n"
               "  rispp schedule <platform-file> --si NAME[,NAME...] [--acs N] "
               "[--scheduler FSFR|ASF|SJF|HEF]\n"
               "  rispp h264 [--acs N] [--scheduler S|all] [--frames N] [--molen]\n"
               "  rispp dse [--min N] [--max N] [--frames N]\n");
  return 2;
}

std::optional<std::string> arg_value(std::vector<std::string>& args, const std::string& key) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == key) {
      std::string value = args[i + 1];
      args.erase(args.begin() + static_cast<long>(i), args.begin() + static_cast<long>(i) + 2);
      return value;
    }
  }
  return std::nullopt;
}

/// Removes `key` and its value from `args` and parses the value with
/// parse_int_or_die (`fallback` when the flag is absent).
long int_flag_or_die(std::vector<std::string>& args, const char* key, long fallback,
                     long min_value, long max_value) {
  const auto text = arg_value(args, key);
  return text ? parse_int_or_die(key, text->c_str(), min_value, max_value) : fallback;
}

bool flag(std::vector<std::string>& args, const std::string& key) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == key) {
      args.erase(args.begin() + static_cast<long>(i));
      return true;
    }
  }
  return false;
}

SpecialInstructionSet load_platform(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::logic_error("cannot open platform file " + path);
  return config::parse_platform(in);
}

int cmd_describe(std::vector<std::string> args) {
  if (args.size() != 1) return usage();
  const auto set = load_platform(args[0]);
  std::printf("%s", config::describe_platform(set).c_str());
  return 0;
}

int cmd_schedule(std::vector<std::string> args) {
  const auto si_list = arg_value(args, "--si");
  const auto acs = static_cast<unsigned>(int_flag_or_die(args, "--acs", 10, 0, 1'000));
  const std::string scheduler_name = arg_value(args, "--scheduler").value_or("HEF");
  if (args.size() != 1 || !si_list.has_value()) return usage();
  const auto set = load_platform(args[0]);

  SelectionRequest sel;
  sel.set = &set;
  sel.expected_executions.assign(set.si_count(), 0);
  std::stringstream names(*si_list);
  std::string name;
  while (std::getline(names, name, ',')) {
    const auto id = set.find(name);
    if (!id.has_value()) throw std::logic_error("unknown SI " + name);
    sel.hot_spot_sis.push_back(*id);
    sel.expected_executions[*id] = 1000;  // uniform expectation by default
  }
  sel.container_count = acs;
  const auto selection = select_molecules(sel);
  std::printf("selection under %u ACs (NA = %u):\n", acs,
              selection_atom_count(set, selection));
  for (const SiRef& s : selection)
    std::printf("  %-16s %s latency %llu (trap %llu)\n", set.si(s.si).name.c_str(),
                set.si(s.si).molecule(s.mol).atoms.to_string().c_str(),
                static_cast<unsigned long long>(set.latency(s)),
                static_cast<unsigned long long>(set.si(s.si).software_latency));

  ScheduleRequest req;
  req.set = &set;
  req.selected = selection;
  req.available = Molecule(set.atom_type_count());
  req.expected_executions = sel.expected_executions;
  const Schedule schedule = make_scheduler(scheduler_name)->schedule(req);
  std::printf("%s loading sequence (%zu atoms):", scheduler_name.c_str(),
              schedule.loads.size());
  for (AtomTypeId t : schedule.loads)
    std::printf(" %s", set.library().type(t).name.c_str());
  std::printf("\n");
  return 0;
}

int cmd_h264(std::vector<std::string> args) {
  const auto acs = static_cast<unsigned>(int_flag_or_die(args, "--acs", 10, 0, 1'000));
  const std::string scheduler_name = arg_value(args, "--scheduler").value_or("HEF");
  const auto frames = static_cast<int>(int_flag_or_die(args, "--frames", 20, 1, 10'000));
  const bool with_molen = flag(args, "--molen");
  if (!args.empty()) return usage();

  const auto set = h264sis::build_h264_si_set();
  h264::WorkloadConfig config;
  config.frames = frames;
  std::fprintf(stderr, "encoding %d synthetic CIF frames...\n", frames);
  const auto workload = h264::generate_h264_workload(set, config);

  std::vector<std::string> schedulers =
      scheduler_name == "all" ? scheduler_names() : std::vector<std::string>{scheduler_name};
  for (const auto& name : schedulers) {
    auto scheduler = make_scheduler(name);
    RtmConfig rtm_config;
    rtm_config.container_count = acs;
    rtm_config.scheduler = scheduler.get();
    RunTimeManager rtm(&set, workload.trace.hot_spots.size(), rtm_config);
    h264::seed_default_forecasts(set, rtm);
    const SimResult result = run_trace(workload.trace, rtm);
    std::printf("%-5s @%2u ACs: %10.2f Mcycles (%llu atom loads)\n", name.c_str(), acs,
                result.total_cycles / 1e6,
                static_cast<unsigned long long>(result.atom_loads));
  }
  if (with_molen) {
    MolenConfig molen_config;
    molen_config.container_count = acs;
    MolenBackend molen(&set, workload.trace.hot_spots.size(), molen_config);
    h264::seed_default_forecasts(set, molen);
    const SimResult result = run_trace(workload.trace, molen);
    std::printf("Molen @%2u ACs: %10.2f Mcycles (%llu atom loads)\n", acs,
                result.total_cycles / 1e6,
                static_cast<unsigned long long>(result.atom_loads));
  }
  return 0;
}

int cmd_dse(std::vector<std::string> args) {
  const auto min_acs = static_cast<unsigned>(int_flag_or_die(args, "--min", 4, 0, 1'000));
  const auto max_acs = static_cast<unsigned>(int_flag_or_die(args, "--max", 24, 0, 1'000));
  const auto frames = static_cast<int>(int_flag_or_die(args, "--frames", 20, 1, 10'000));
  if (!args.empty() || min_acs > max_acs) return usage();

  const auto set = h264sis::build_h264_si_set();
  h264::WorkloadConfig config;
  config.frames = frames;
  std::fprintf(stderr, "encoding %d synthetic CIF frames...\n", frames);
  const auto workload = h264::generate_h264_workload(set, config);

  // Software reference for the speedup column.
  SoftwareOnlyBackend sw(&set);
  const Cycles software = run_trace(workload.trace, sw).total_cycles;

  std::printf("#ACs  best-scheduler   Mcycles   speedup-vs-sw\n");
  for (unsigned acs = min_acs; acs <= max_acs; ++acs) {
    Cycles best = 0;
    std::string best_name;
    for (const auto& name : scheduler_names()) {
      auto scheduler = make_scheduler(name);
      RtmConfig rtm_config;
      rtm_config.container_count = acs;
      rtm_config.scheduler = scheduler.get();
      RunTimeManager rtm(&set, workload.trace.hot_spots.size(), rtm_config);
      h264::seed_default_forecasts(set, rtm);
      const Cycles cycles = run_trace(workload.trace, rtm).total_cycles;
      if (best == 0 || cycles < best) {
        best = cycles;
        best_name = name;
      }
    }
    std::printf("%4u  %-14s %9.2f   %6.2fx\n", acs, best_name.c_str(), best / 1e6,
                static_cast<double>(software) / static_cast<double>(best));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "describe") return cmd_describe(std::move(args));
    if (command == "schedule") return cmd_schedule(std::move(args));
    if (command == "h264") return cmd_h264(std::move(args));
    if (command == "dse") return cmd_dse(std::move(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
