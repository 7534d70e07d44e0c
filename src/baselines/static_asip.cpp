#include "baselines/static_asip.h"

namespace rispp {

StaticAsipBackend::StaticAsipBackend(const SpecialInstructionSet* set) {
  latency_.resize(set->si_count());
  for (SiId si = 0; si < set->si_count(); ++si) {
    Cycles best = set->si(si).software_latency;
    unsigned best_atoms = 0;
    for (const MoleculeImpl& m : set->si(si).molecules) {
      if (m.latency < best) {
        best = m.latency;
        best_atoms = m.atoms.determinant();
      }
    }
    latency_[si] = best;
    dedicated_atoms_ += best_atoms;
  }
}

}  // namespace rispp
