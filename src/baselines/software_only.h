// Pure base-processor execution (0 Atom Containers): every SI traps. The
// paper's reference point "down to the execution speed of a general-purpose
// processor in case of zero ACs: 7,403M cycles".
#pragma once

#include "baselines/fixed_latency.h"
#include "isa/si.h"

namespace rispp {

class SoftwareOnlyBackend final : public FixedLatencyBackend {
 public:
  explicit SoftwareOnlyBackend(const SpecialInstructionSet* set) {
    for (SiId si = 0; si < set->si_count(); ++si)
      latency_.push_back(set->si(si).software_latency);
  }

  std::string_view name() const override { return "Software"; }
};

}  // namespace rispp
