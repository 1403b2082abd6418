// The benchmark's workloads. Each builds its inputs from the seed, serves
// them through the library's synchronous public entry points from one
// thread, checks the outputs, and returns its metrics: the end-to-end set
// for an untraced run, the per-layer set for a traced one.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "harness.h"

namespace turbo::model {
class SequenceClassifier;
}

namespace perfbench {

RunResult run_classify_varlen(const RunOptions& options);
RunResult run_chat_prefix(const RunOptions& options);
RunResult run_multitenant_decode(const RunOptions& options);

// classify_varlen's served model, built the same way for every pass.
std::unique_ptr<turbo::model::SequenceClassifier> make_classifier();

// The analytic cost the DP scheduler plans classify_varlen with: the FLOPs
// of a padded [batch, len] forward pass over a rate that rises with the
// rows stacked, plus a per-batch cost. The three constants were fitted to
// this model's measured forward times by perfbench_calibrate (README.md).
inline constexpr double kDpPeakGflops = 7.8;
inline constexpr double kDpHalfRows = 0.0;
inline constexpr double kDpBatchOverheadMs = 0.0;
double classify_batch_flops(int len, int batch);
double classify_batch_cost_ms(int len, int batch);

// Per-layer metric names every traced run prints, with their units. A
// workload that does not exercise a layer reports 0 for its metrics.
const std::map<std::string, std::string>& per_layer_units();

// Fills the kernels.* metrics: the public kernels timed at the workloads'
// own shapes (traced runs only; never runs during end-to-end timing).
void probe_kernels(std::map<std::string, double>& out);

}  // namespace perfbench
