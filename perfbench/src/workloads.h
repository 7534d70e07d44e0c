// The four benchmark workloads. Each is a closed batch: every cell, session
// or candidate of a pass is issued at once from this process onto a pool of
// fixed width, and a pass ends when the last one finishes.
//
//   h264_sweep       FSFR/ASF/SJF/HEF + Molen x ACs 5..24 over the 140-frame
//                    CIF trace, solo run_trace (Figure 7, Table 2).
//   fleet_shared     a seeded h264/jpeg SessionBatch through one
//                    SharedDecisionCache (memo as a read path).
//   fleet_contended  run_contended_fleet, 8 tenants/device, weighted quotas
//                    (arbiter + event-horizon co-simulation).
//   dse_search       run_dse over the 8-frame trace and the Table 1 platform.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "base/parallel.h"
#include "harness.h"

namespace perfbench {

/// Set-up timings, one entry per set-up repetition (reported as medians).
struct SetupLedger {
  std::vector<double> generate_s;  // h264::generate_h264_workload
  std::vector<double> save_s;      // save_trace_file
  std::vector<double> load_s;      // try_load_trace_file
  std::vector<double> resolve_s;   // cold fleet::TraceRepository population
  double file_mb = 0.0;
  double runs = 0.0;
  double executions = 0.0;
};

/// Receives the per-layer times of a traced pass. Cells merge their own
/// LayerTimes in under the mutex when they finish.
struct TraceSink {
  LayerTimes times;
  rispp::MetricHistogram entry_ns;  // per RTM entry
  std::mutex mutex;
};

struct PassOutcome {
  /// Operations the pass completed (cells, sessions or scored candidates).
  std::uint64_t ops = 0;
  /// Result digests; each stands for ops / digests.size() operations.
  std::vector<std::uint64_t> digests;
  /// The workload's deterministic simulated headline (see speedup_name()).
  double sim_speedup = 0.0;
  /// Host seconds inside the layer entry points the benchmark timed around
  /// public calls (name -> seconds), for the traced ledger.
  std::map<std::string, double> layer_s;
  /// Deterministic per-layer facts of this pass (name -> value).
  std::map<std::string, double> facts;
};

struct CheckOutcome {
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  std::map<std::string, double> facts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything that defines the workload's inputs besides the seed; two
  /// results are comparable only if their definitions match.
  virtual std::string definition() const = 0;
  /// Set-up repetitions per run (setup_s is their median).
  virtual int setup_reps() const { return 5; }
  /// One cold set-up into a private directory; the last one's state is used.
  virtual void setup(SetupLedger& ledger) = 0;
  /// One closed batch on `pool`; `sink` non-null = traced.
  virtual PassOutcome run_pass(rispp::ThreadPool& pool, TraceSink* sink) = 0;
  /// Re-runs a seeded sample of the last pass through the oracle paths.
  virtual CheckOutcome check() = 0;
  /// Detail lines in the workload's own terms (cells/s, sessions/min, ...).
  virtual void details(const PassOutcome& pass, double ops_per_s, Report& report) const = 0;
};

/// Null for an unknown name. `scratch_dir` holds the private set-up files.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const std::string& scratch_dir);

}  // namespace perfbench
