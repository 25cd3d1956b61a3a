// Processor backend selection for join execution.
//
// The machine owns two join engines — the multi-core CPU radix join and the
// GPU Triton join — plus the co-processing scheduler that splits one join
// across both (src/sched/). Drivers, the serve layer and the benches select
// between them with this enum; the string forms back the --backend flag.

#ifndef TRITON_EXEC_BACKEND_H_
#define TRITON_EXEC_BACKEND_H_

#include <string>

#include "util/status.h"

namespace triton::exec {

/// Which processor(s) execute a join.
enum class Backend {
  /// Multi-core CPU radix join only (join::CpuRadixJoin).
  kCpu,
  /// GPU Triton join only (core::TritonJoin) — the default.
  kGpu,
  /// Co-processing split across both (sched::CoProcessScheduler).
  kHybrid,
};

/// Stable lower-case name ("cpu", "gpu", "hybrid").
const char* BackendName(Backend backend);

/// Parses a --backend flag value; InvalidArgument on anything but the
/// three BackendName spellings.
util::StatusOr<Backend> ParseBackend(const std::string& name);

}  // namespace triton::exec

#endif  // TRITON_EXEC_BACKEND_H_
