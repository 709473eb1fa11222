#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "workload.h"

namespace ppj::perfbench {

/// The traced run (--trace 1): up to `ops` operations of the workload on
/// one set-up with ExecuteOptions::telemetry on for every other request,
/// then the same request stages driven directly and the layer primitives
/// timed on the workload's shapes. Prints the per-layer report on stdout and returns
/// every per-layer metric. Spans the benchmark records around its own
/// calls into the modules are written to `spans_out` when it is non-empty.
RunOutcome RunTraced(const WorkloadSpec& spec, std::uint64_t seed,
                     std::size_t ops, const std::string& spans_out);

}  // namespace ppj::perfbench

#endif  // PERFBENCH_LAYERS_H_
