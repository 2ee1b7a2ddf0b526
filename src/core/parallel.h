// The former name of the multi-worker analysis driver, now
// `Pipeline(telescope, workers)`. Kept only because the benchmark
// harness (perfbench/harness/tour.cpp) still constructs it by this
// name; new code names `Pipeline`.
#pragma once

#include "core/pipeline.h"

namespace synscan::core {

using ParallelAnalyzer = Pipeline;

}  // namespace synscan::core
