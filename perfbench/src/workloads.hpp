// The three workloads. Each runs for Options::seconds, checks its outputs
// with the oracle, and fills an Outcome with both metric sets.
#pragma once

#include "report.hpp"

namespace perfbench {

/// Seq and 4-worker builds of mult-10 in interleaved pairs, then an
/// export-roots snapshot of the 4-worker outputs restored into a fresh
/// 4-worker manager.
Outcome run_build(const Options& opt);

/// Stuck-at campaign over every net of hdec-24 at 4 workers, paired with a
/// Seq golden build.
Outcome run_fault(const Options& opt);

/// Closed-loop clients building small circuits through a BddService, with
/// interleaved reads and periodic checkpoints.
Outcome run_service(const Options& opt);

}  // namespace perfbench
