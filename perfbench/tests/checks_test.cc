// Each correctness check the benchmark applies passes on a well-formed
// input and fails on a corrupted one.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "harness.h"
#include "model/classifier.h"
#include "model/decoder.h"
#include "reference.h"

namespace {

int g_failures = 0;

void expect_pass(const char* what, const std::string& message) {
  if (!message.empty()) {
    std::printf("FAIL %s: expected to pass, got: %s\n", what, message.c_str());
    ++g_failures;
  }
}

void expect_fail(const char* what, const std::string& message) {
  if (message.empty()) {
    std::printf("FAIL %s: corrupted input was accepted\n", what);
    ++g_failures;
  }
}

namespace ts = turbo::serving;
using namespace perfbench;

void complete_once() {
  expect_pass("complete once", check_complete_once({1, 2, 3}, {3, 1, 2}));
  expect_fail("complete once: missing", check_complete_once({1, 2, 3}, {1, 2}));
  expect_fail("complete once: twice", check_complete_once({1, 2}, {1, 2, 2}));
  expect_fail("complete once: stranger", check_complete_once({1}, {1, 9}));
}

void stream() {
  ts::GenerationResponse r;
  r.request_id = 4;
  r.tokens = {7, 8, 9};
  r.hit_max_len = false;
  StreamLog log{{7, 8, 9, 2}, {5, 6, 7, 8}, {false, false, false, true}};
  expect_pass("stream", check_stream(r, log, 2));
  StreamLog gap = log;
  gap.steps = {5, 6, 8, 9};
  expect_fail("stream: gap", check_stream(r, gap, 2));
  StreamLog dup = log;
  dup.tokens = {7, 8, 8, 9, 2};
  dup.steps = {5, 6, 6, 7, 8};
  dup.last = {false, false, false, false, true};
  expect_fail("stream: duplicate", check_stream(r, dup, 2));
  StreamLog early = log;
  early.last = {false, true, false, true};
  expect_fail("stream: early is_last", check_stream(r, early, 2));
  StreamLog wrong = log;
  wrong.tokens[1] = 11;
  expect_fail("stream: token differs", check_stream(r, wrong, 2));
  ts::GenerationResponse capped = r;
  capped.hit_max_len = true;
  expect_fail("stream: EOS streamed past max_new", check_stream(capped, log, 2));
}

void dp_plan() {
  const auto costs = ts::CostTable::warmup(
      [](int len, int batch) { return 1.0 + 0.01 * len * batch; }, 100, 8);
  std::vector<ts::Request> reqs;
  for (int i = 0; i < 6; ++i) {
    ts::Request r;
    r.id = i;
    r.length = 5 + 9 * i;
    r.tokens.assign(static_cast<size_t>(r.length), 1);
    reqs.push_back(r);
  }
  const auto plan = ts::DpBatchScheduler(8).schedule(reqs, costs);
  expect_pass("dp plan", check_dp_plan(reqs, plan, costs, 8));
  auto dropped = plan;
  dropped.back().request_indices.pop_back();
  expect_fail("dp plan: request dropped", check_dp_plan(reqs, dropped, costs, 8));
  auto short_pad = plan;
  short_pad.back().padded_length -= 1;
  expect_fail("dp plan: padding too short", check_dp_plan(reqs, short_pad, costs, 8));
  // Every request alone but priced as if one batch were cheaper: a plan
  // whose predicted cost exceeds NoBatch's.
  auto costly = ts::NoBatchScheduler().schedule(reqs, costs);
  costly[0].predicted_cost_ms += 1e3;
  expect_fail("dp plan: worse than NoBatch", check_dp_plan(reqs, costly, costs, 8));
}

void logits_and_margins() {
  expect_pass("logits", check_logits_close({1.0f, -2.0f}, {1.00001, -2.00001}, 1e-4, 1e-3));
  expect_fail("logits: off", check_logits_close({1.0f, -2.0f}, {1.0, -1.9}, 1e-4, 1e-3));
  expect_fail("logits: length", check_logits_close({1.0f}, {1.0, 2.0}, 1e-4, 1e-3));
  const std::vector<std::vector<double>> rows = {{0.1, 0.5, 0.2}, {0.9, 0.3, 0.8995}};
  expect_pass("margins", check_token_margins(rows, {1, 2}, 1e-3));
  expect_fail("margins: wrong token", check_token_margins(rows, {1, 1}, 1e-3));
  expect_fail("margins: too few rows", check_token_margins(rows, {1, 0, 0}, 1e-3));
}

void determinism_and_drain() {
  const std::map<int64_t, std::vector<int>> a = {{1, {3, 4}}, {2, {5}}};
  auto b = a;
  expect_pass("same outputs", check_same_outputs(a, b));
  b[2] = {6};
  expect_fail("same outputs: token", check_same_outputs(a, b));
  const std::map<std::string, double> ca = {{"steps", 10}, {"preempted", 2}};
  auto cb = ca;
  expect_pass("same counts", check_same_counts(ca, cb));
  cb["preempted"] = 3;
  expect_fail("same counts: value", check_same_counts(ca, cb));
  const std::vector<IterRange> ra = {{0, 3}, {2, 2}, {4, 9}};
  auto rb = ra;
  expect_pass("same ranges", check_same_ranges(ra, rb));
  rb[1].second = 3;
  expect_fail("same ranges: moved", check_same_ranges(ra, rb));
  rb = ra;
  rb.pop_back();
  expect_fail("same ranges: missing", check_same_ranges(ra, rb));
  expect_pass("drained", check_drained(0, 0, 0));
  expect_fail("drained: kv", check_drained(4096, 0, 0));
  expect_fail("drained: budget", check_drained(0, 4096, 0));
  expect_fail("drained: active", check_drained(0, 0, 1));
}

// The float64 references agree with the library's own float32 models on a
// small configuration, and the agreement checks catch perturbed weights.
void references() {
  auto cfg = turbo::model::ModelConfig::tiny(2, 32, 4, 64, 50);
  turbo::model::SequenceClassifier clf(cfg, 3, 5);
  const std::vector<int> toks = {4, 9, 17, 3, 22};
  turbo::Tensor ids = turbo::Tensor::zeros(turbo::Shape{1, 5}, turbo::DType::kI32);
  for (int i = 0; i < 5; ++i) ids.data<int32_t>()[i] = toks[static_cast<size_t>(i)];
  const turbo::Tensor logits = clf.classify(ids);
  const std::vector<float> served(logits.data<float>(), logits.data<float>() + 3);
  const ClassifierHead head = rebuild_classifier_head(32, 3, 5);
  expect_pass("classifier reference",
              check_logits_close(served,
                                 reference_classifier_logits(cfg, clf.encoder().weights(), head, toks),
                                 1e-4, 1e-3));
  const ClassifierHead wrong_head = rebuild_classifier_head(32, 3, 6);
  expect_fail("classifier reference: wrong weights",
              check_logits_close(served,
                                 reference_classifier_logits(cfg, clf.encoder().weights(), wrong_head, toks),
                                 1e-4, 1e-3));

  auto causal = turbo::model::ModelConfig::tiny_causal(2, 32, 4, 64, 50);
  turbo::model::Seq2SeqDecoder dec(causal, 9);
  turbo::model::DenseKvCache cache(causal, 16, 1);
  std::vector<int> fed = {5, 8, 13};
  std::vector<int> greedy;
  std::vector<float> row(50);
  for (int t = 0; t < 8; ++t) {
    const int tok = t < 3 ? fed[static_cast<size_t>(t)] : greedy.back();
    dec.step({{tok, t, &cache, true}}, row.data());
    if (t >= 2) {
      greedy.push_back(static_cast<int>(std::max_element(row.begin(), row.end()) - row.begin()));
    }
  }
  std::vector<int> all = fed;
  all.insert(all.end(), greedy.begin(), greedy.end() - 1);
  const auto ref = reference_decoder_logits(causal, dec.weights(), all, nullptr, 2);
  expect_pass("decoder reference", check_token_margins(ref, greedy, 1e-3));
  std::vector<int> shifted = greedy;
  for (int& t : shifted) t = (t + 1) % 50;
  expect_fail("decoder reference: shifted tokens", check_token_margins(ref, shifted, 1e-3));
}

}  // namespace

// The statistics the time metrics are read with.
void statistics() {
  if (fastest_per_unit({{3, 1, 5}, {2, 4, 5}}) != std::vector<double>{2, 1, 5}) {
    std::printf("FAIL fastest per unit\n");
    ++g_failures;
  }
  // Twenty tied samples at the top: the p90 cut lies among them, and they
  // all count as the tail.
  std::vector<double> tied(76, 1.0);
  tied.insert(tied.end(), 20, 2.0);
  if (samples_beyond(tied, 0.9) != 20) {
    std::printf("FAIL samples beyond: ties with the cut\n");
    ++g_failures;
  }
}

int main() {
  complete_once();
  statistics();
  stream();
  dp_plan();
  logits_and_margins();
  determinism_and_drain();
  references();
  if (g_failures == 0) std::printf("all perfbench check tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
