#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace ts = turbo::serving;

std::string check_complete_once(const std::vector<int64_t>& expected,
                                const std::vector<int64_t>& completed) {
  std::unordered_map<int64_t, int> seen;
  for (const int64_t id : completed) ++seen[id];
  for (const int64_t id : expected) {
    const auto it = seen.find(id);
    const int n = it == seen.end() ? 0 : it->second;
    if (n != 1) {
      std::ostringstream os;
      os << "request " << id << " completed " << n << " times";
      return os.str();
    }
    seen.erase(it);
  }
  if (!seen.empty()) {
    std::ostringstream os;
    os << "request " << seen.begin()->first << " completed but never submitted";
    return os.str();
  }
  return {};
}

std::string check_stream(const ts::GenerationResponse& response,
                         const StreamLog& log, int eos_id) {
  std::ostringstream os;
  os << "request " << response.request_id << ": ";
  std::vector<int> want = response.tokens;
  if (!response.hit_max_len) want.push_back(eos_id);
  if (log.tokens != want) {
    os << "streamed " << log.tokens.size() << " tokens, response implies "
       << want.size() << " (or a token differs)";
    return os.str();
  }
  if (log.steps.size() != log.tokens.size() ||
      log.last.size() != log.tokens.size()) {
    os << "callback record lengths disagree";
    return os.str();
  }
  for (size_t i = 1; i < log.steps.size(); ++i) {
    if (log.steps[i] != log.steps[i - 1] + 1) {
      os << "stream position " << log.steps[i - 1] << " followed by "
         << log.steps[i] << " (gap or duplicate)";
      return os.str();
    }
  }
  for (size_t i = 0; i < log.last.size(); ++i) {
    if (log.last[i] != (i + 1 == log.last.size())) {
      os << "is_last flag wrong on streamed token " << i;
      return os.str();
    }
  }
  return {};
}

std::string check_dp_plan(const std::vector<ts::Request>& requests,
                          const std::vector<ts::Batch>& plan,
                          const ts::CostTable& costs, int max_batch) {
  std::vector<int> hits(requests.size(), 0);
  for (const ts::Batch& b : plan) {
    if (b.size() < 1 || b.size() > max_batch) {
      return "batch of size " + std::to_string(b.size()) + " outside [1, " +
             std::to_string(max_batch) + "]";
    }
    for (const size_t i : b.request_indices) {
      if (i >= requests.size()) return "batch names a request out of range";
      ++hits[i];
      if (requests[i].length > b.padded_length) {
        return "padded length " + std::to_string(b.padded_length) +
               " below member length " + std::to_string(requests[i].length);
      }
    }
  }
  for (size_t i = 0; i < hits.size(); ++i) {
    if (hits[i] != 1) {
      return "request index " + std::to_string(i) + " appears in " +
             std::to_string(hits[i]) + " batches";
    }
  }
  const double dp = ts::scheme_cost_ms(plan);
  const double none =
      ts::scheme_cost_ms(ts::NoBatchScheduler().schedule(requests, costs));
  const double naive = ts::scheme_cost_ms(
      ts::NaiveBatchScheduler(max_batch).schedule(requests, costs));
  const double slack = 1e-9 * std::max({1.0, none, naive});
  if (dp > none + slack || dp > naive + slack) {
    std::ostringstream os;
    os << "DP plan cost " << dp << " ms exceeds NoBatch " << none
       << " ms or Naive-Batch " << naive << " ms";
    return os.str();
  }
  return {};
}

std::string check_logits_close(const std::vector<float>& served,
                               const std::vector<double>& reference,
                               double atol, double rtol) {
  if (served.size() != reference.size()) {
    return "served " + std::to_string(served.size()) + " logits, reference " +
           std::to_string(reference.size());
  }
  for (size_t i = 0; i < served.size(); ++i) {
    const double err = std::fabs(static_cast<double>(served[i]) - reference[i]);
    if (!(err <= atol + rtol * std::fabs(reference[i]))) {
      std::ostringstream os;
      os << "logit " << i << " served " << served[i] << " vs reference "
         << reference[i] << " (|err| " << err << ")";
      return os.str();
    }
  }
  return {};
}

std::string check_token_margins(
    const std::vector<std::vector<double>>& reference_rows,
    const std::vector<int>& tokens, double margin) {
  if (reference_rows.size() < tokens.size()) {
    return "reference has " + std::to_string(reference_rows.size()) +
           " rows for " + std::to_string(tokens.size()) + " tokens";
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    const auto& row = reference_rows[i];
    const int tok = tokens[i];
    if (tok < 0 || static_cast<size_t>(tok) >= row.size()) {
      return "token " + std::to_string(tok) + " outside the vocabulary";
    }
    const double best = *std::max_element(row.begin(), row.end());
    const double got = row[static_cast<size_t>(tok)];
    if (!(got >= best - margin)) {
      std::ostringstream os;
      os << "position " << i << ": served token " << tok << " has reference "
         << "logit " << got << ", " << best - got << " below the maximum";
      return os.str();
    }
  }
  return {};
}

std::string check_same_outputs(const std::map<int64_t, std::vector<int>>& want,
                               const std::map<int64_t, std::vector<int>>& got) {
  if (want.size() != got.size()) {
    return std::to_string(got.size()) + " outputs, expected " +
           std::to_string(want.size());
  }
  for (const auto& [id, tokens] : want) {
    const auto it = got.find(id);
    if (it == got.end()) return "request " + std::to_string(id) + " missing";
    if (it->second != tokens) {
      return "request " + std::to_string(id) + " produced different tokens";
    }
  }
  return {};
}

std::string check_same_ranges(const std::vector<IterRange>& want,
                              const std::vector<IterRange>& got) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " iteration ranges, expected " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) {
      std::ostringstream os;
      os << "iteration range " << i << " is [" << got[i].first << ", "
         << got[i].second << "], expected [" << want[i].first << ", "
         << want[i].second << "]";
      return os.str();
    }
  }
  return {};
}

std::string check_same_counts(const std::map<std::string, double>& want,
                              const std::map<std::string, double>& got) {
  for (const auto& [name, value] : want) {
    const auto it = got.find(name);
    if (it == got.end()) return "count " + name + " missing";
    if (it->second != value) {
      std::ostringstream os;
      os << "count " << name << " = " << it->second << ", expected " << value;
      return os.str();
    }
  }
  if (got.size() != want.size()) return "unexpected extra counts";
  return {};
}

std::string check_drained(size_t kv_charged_bytes, size_t budget_used_bytes,
                          int active_sequences) {
  if (kv_charged_bytes != 0 || budget_used_bytes != 0 || active_sequences != 0) {
    std::ostringstream os;
    os << "after the pass: " << kv_charged_bytes << " KV bytes charged, "
       << budget_used_bytes << " budget bytes used, " << active_sequences
       << " sequences active";
    return os.str();
  }
  return {};
}

}  // namespace perfbench
