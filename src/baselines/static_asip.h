// Static-ASIP upper bound: every SI permanently owns its fastest molecule in
// dedicated hardware (no reconfiguration, unlimited area). This is the
// extensible-processor paradigm of Figure 1a — maximal speed, maximal idle
// silicon — and serves as the lower bound on achievable execution time.
#pragma once

#include "baselines/fixed_latency.h"
#include "isa/si.h"

namespace rispp {

class StaticAsipBackend final : public FixedLatencyBackend {
 public:
  explicit StaticAsipBackend(const SpecialInstructionSet* set);

  std::string_view name() const override { return "StaticASIP"; }

  /// Total atoms the dedicated hardware would occupy (the paper's "overhead
  /// can easily grow twice the size of the original processor core").
  unsigned dedicated_atoms() const { return dedicated_atoms_; }

 private:
  unsigned dedicated_atoms_ = 0;
};

}  // namespace rispp
