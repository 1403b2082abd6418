// Correctness checks the benchmark applies to every run.
//
// Each check is a pure function of what the benchmark observed through
// the library's public interface and returns an empty string when it
// holds, or a description of the first violation. Keeping them pure is
// what lets tests/checks_test.cc show each one failing on a corrupted
// input.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serving/cost_table.h"
#include "serving/request.h"
#include "serving/scheduler.h"

namespace perfbench {

// Every id in `expected` completed exactly once and nothing else did.
std::string check_complete_once(const std::vector<int64_t>& expected,
                                const std::vector<int64_t>& completed);

// What the token callback saw for one request, in call order.
struct StreamLog {
  std::vector<int> tokens;
  std::vector<int> steps;  // the decode position the callback reported
  std::vector<bool> last;  // the is_last flag of each call
};

// The streamed tokens equal the response's tokens (plus the terminating
// EOS when the request stopped on it), positions advance by exactly one
// (no gaps, no duplicates), and only the final call carries is_last.
std::string check_stream(const turbo::serving::GenerationResponse& response,
                         const StreamLog& log, int eos_id);

// One queue snapshot's plan: every request in exactly one batch, no batch
// above max_batch, every batch padded to cover each member, and the DP
// plan's predicted cost no more than NoBatch's or Naive-Batch's.
std::string check_dp_plan(const std::vector<turbo::serving::Request>& requests,
                          const std::vector<turbo::serving::Batch>& plan,
                          const turbo::serving::CostTable& costs,
                          int max_batch);

// |served - reference| <= atol + rtol * |reference| element-wise.
std::string check_logits_close(const std::vector<float>& served,
                               const std::vector<double>& reference,
                               double atol, double rtol);

// For each position i, the reference logit of tokens[i] lies within
// `margin` of that reference row's maximum (greedy decoding picked a
// token the float64 model also ranks first, up to near-ties).
std::string check_token_margins(
    const std::vector<std::vector<double>>& reference_rows,
    const std::vector<int>& tokens, double margin);

// Two runs of the same trace produced identical outputs per request.
std::string check_same_outputs(const std::map<int64_t, std::vector<int>>& want,
                               const std::map<int64_t, std::vector<int>>& got);

// Two runs of the same trace produced identical layer counts.
std::string check_same_counts(const std::map<std::string, double>& want,
                              const std::map<std::string, double>& got);

// Driver-loop iterations [first, last], both included.
using IterRange = std::pair<int64_t, int64_t>;

// Two passes of the same trace put every request's due time and tokens in
// the same driver iterations, so one pass's unit times apply to the other.
std::string check_same_ranges(const std::vector<IterRange>& want,
                              const std::vector<IterRange>& got);

// After a pass every KV byte and every budget byte is returned.
std::string check_drained(size_t kv_charged_bytes, size_t budget_used_bytes,
                          int active_sequences);

}  // namespace perfbench
