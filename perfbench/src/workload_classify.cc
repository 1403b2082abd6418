// classify_varlen: the paper's §6.3 short-request classification service.
//
// A BERT-style SequenceClassifier behind serving::Server with the DP batch
// scheduler. Each pass serves a fixed trace of queue snapshots, one
// Server::serve call per snapshot; a request is due at the start of the
// call that carries it, and its latency runs to the call's return (the
// server hands back a whole snapshot at once); the reported times take
// each call's fastest time over the timed passes. This is the paper's own
// path — large-m GEMMs, softmax and layernorm batch reductions, and the
// model-aware allocator replanning for each batch shape — and touches
// neither genserve nor router.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "checks.h"
#include "common/rng.h"
#include "model/classifier.h"
#include "reference.h"
#include "serving/server.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace ts = turbo::serving;

constexpr int kLayers = 4;
constexpr int kHidden = 256;
constexpr int kHeads = 4;
constexpr int kInter = 1024;
constexpr int kVocab = 8192;
constexpr int kClasses = 8;
constexpr uint64_t kModelSeed = 7;
constexpr int kMinLen = 2;
constexpr int kMaxLen = 100;
constexpr int kMaxBatch = 32;
// Snapshot sizes of one pass (96 requests in 30 snapshots, six of each
// size), in a fixed shuffled order. Snapshots stay small because each serve
// call is one timed unit: a short unit can find the moments a co-tenant
// leaves the host fast (README.md, "How the times are read").
constexpr int kSnapshotSizes[] = {1, 2, 3, 4, 6, 1, 2, 3, 4, 6, 1, 2, 3, 4, 6,
                                  1, 2, 3, 4, 6, 1, 2, 3, 4, 6, 1, 2, 3, 4, 6};
constexpr int kReferenceSample = 6;
// Fixed seed of the trace's shape (snapshot order and lengths).
constexpr uint64_t kShapeSeed = 0xc1a5;
// float32 serving against the float64 reference (measured error is about
// 1e-6 on logits of magnitude ~0.3).
constexpr double kLogitAtol = 1e-4;
constexpr double kLogitRtol = 1e-3;

turbo::model::ModelConfig model_config() {
  auto c = turbo::model::ModelConfig::tiny(kLayers, kHidden, kHeads, kInter,
                                           kVocab);
  c.name = "bert-small";
  return c;
}

// Analytic DP cost dictionary (classify_batch_cost_ms). No timing goes into
// it, so the DP's batches are a pure function of the trace.
ts::CostTable analytic_costs() {
  return ts::CostTable::warmup(classify_batch_cost_ms, kMaxLen, kMaxBatch);
}

// DpBatchScheduler behind the BatchScheduler interface, timed from
// outside; keeps every plan for the checks.
struct ScheduleLog {
  std::vector<double> us;
  std::vector<std::vector<ts::Request>> inputs;
  std::vector<std::vector<ts::Batch>> plans;
};

class LoggedScheduler final : public ts::BatchScheduler {
 public:
  LoggedScheduler(ScheduleLog* log, SpanRecorder* spans)
      : log_(log), spans_(spans) {}
  std::string name() const override { return inner_.name(); }
  std::vector<ts::Batch> schedule(const std::vector<ts::Request>& requests,
                                  const ts::CostTable& costs) const override {
    ScopedSpan span(*spans_, "schedule");
    const Clock::time_point t0 = Clock::now();
    std::vector<ts::Batch> plan = inner_.schedule(requests, costs);
    log_->us.push_back(ms_between(t0, Clock::now()) * 1e3);
    log_->inputs.push_back(requests);
    log_->plans.push_back(plan);
    return plan;
  }

 private:
  ts::DpBatchScheduler inner_{kMaxBatch};
  ScheduleLog* log_;
  SpanRecorder* spans_;
};

struct Trace {
  std::vector<std::vector<ts::Request>> snapshots;
  size_t requests = 0;
};

// Each snapshot's lengths are a stratified uniform sample of [kMinLen,
// kMaxLen]: one draw per equal-width stratum, as many strata as requests
// in the snapshot. The snapshot order and the lengths come from a fixed
// draw that is the same for every seed, so every seed serves the same
// batches; the seed draws only the token ids.
Trace make_trace(uint64_t seed) {
  turbo::Rng shape(kShapeSeed);
  turbo::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xc1a5);
  std::vector<int> sizes(std::begin(kSnapshotSizes), std::end(kSnapshotSizes));
  for (int i = static_cast<int>(sizes.size()) - 1; i > 0; --i) {
    std::swap(sizes[static_cast<size_t>(i)],
              sizes[static_cast<size_t>(shape.uniform_int(0, i))]);
  }
  Trace t;
  const int span = kMaxLen - kMinLen + 1;
  for (const int size : sizes) {
    std::vector<int> lens(static_cast<size_t>(size));
    for (int i = 0; i < size; ++i) {
      lens[static_cast<size_t>(i)] =
          kMinLen + static_cast<int>((i + shape.uniform()) * span / size);
    }
    for (int i = size - 1; i > 0; --i) {
      std::swap(lens[static_cast<size_t>(i)],
                lens[static_cast<size_t>(shape.uniform_int(0, i))]);
    }
    std::vector<ts::Request> snap;
    for (const int len : lens) {
      ts::Request r;
      r.id = static_cast<int64_t>(t.requests++);
      r.length = len;
      r.tokens = rng.token_ids(len, kVocab);
      snap.push_back(std::move(r));
    }
    t.snapshots.push_back(std::move(snap));
  }
  return t;
}

struct Pass {
  double wall_s = 0.0;
  std::vector<double> call_ms;  // wall time of each Server::serve call
  std::map<int64_t, std::vector<float>> logits;
  std::vector<int64_t> completed;  // every result, in the order served
  long failed = 0;                 // requests of the trace never served
  std::map<std::string, double> counts;
  ScheduleLog schedule;
  double serve_ms = 0.0;  // summed Server::serve wall time
};

// Serves one pass on a fresh server. `ready`, when given, receives the time
// the server was built and about to take its first request.
Pass run_pass(const Trace& trace, const ts::CostTable& costs,
              SpanRecorder& spans, Clock::time_point* ready = nullptr) {
  Pass p;
  auto server = std::make_unique<ts::Server>(
      make_classifier(), std::make_unique<LoggedScheduler>(&p.schedule, &spans), costs);
  if (ready != nullptr) *ready = Clock::now();
  ScopedSpan pass_span(spans, "pass");
  const Clock::time_point t0 = Clock::now();
  for (const auto& snap : trace.snapshots) {
    const Clock::time_point due = Clock::now();
    std::vector<ts::ServedResult> results;
    {
      ScopedSpan serve_span(spans, "serve");
      results = server->serve(snap);
    }
    const double ms = ms_between(due, Clock::now());
    p.serve_ms += ms;
    p.call_ms.push_back(ms);
    for (auto& r : results) {
      p.completed.push_back(r.request_id);
      p.logits[r.request_id] = std::move(r.logits);
    }
  }
  p.wall_s = seconds_between(t0, Clock::now());
  std::fprintf(stderr, "perfbench_serve: pass %.4f s\n", p.wall_s);
  p.failed = std::max(0L, static_cast<long>(trace.requests) -
                             static_cast<long>(p.logits.size()));

  double batches = 0, slots = 0, tokens = 0;
  for (size_t k = 0; k < p.schedule.plans.size(); ++k) {
    for (const ts::Batch& b : p.schedule.plans[k]) {
      batches += 1;
      slots += static_cast<double>(b.size()) * b.padded_length;
      for (const size_t i : b.request_indices) {
        tokens += p.schedule.inputs[k][i].length;
      }
    }
  }
  const auto& alloc = server->classifier().encoder().allocator().stats();
  p.counts = {{"batches", batches},
              {"padded_slots", slots},
              {"tokens", tokens},
              {"requests", static_cast<double>(p.logits.size())},
              {"encoder_malloc_count", static_cast<double>(alloc.device_malloc_count)},
              {"encoder_peak_bytes", static_cast<double>(alloc.peak_device_bytes)}};
  return p;
}

}  // namespace

std::unique_ptr<turbo::model::SequenceClassifier> make_classifier() {
  return std::make_unique<turbo::model::SequenceClassifier>(
      model_config(), kClasses, kModelSeed);
}

double classify_batch_flops(int len, int batch) {
  const turbo::model::ModelConfig c = model_config();
  const double token_flops =
      2.0 * c.num_layers *
      (3.0 * c.hidden * c.hidden + 1.0 * c.hidden * c.hidden +
       2.0 * c.hidden * c.intermediate);
  const double pair_flops = 4.0 * c.num_layers * c.hidden;
  const double l = len, b = batch;
  return l * b * token_flops + b * l * l * pair_flops;
}

// FLOPs of the padded batch over a GEMM rate that rises with the rows a
// batch stacks (rows / (rows + kDpHalfRows) of a peak; small batches leave
// the blocked GEMM underused, which is what makes batching pay), plus a
// fixed per-batch cost.
double classify_batch_cost_ms(int len, int batch) {
  const double rows = static_cast<double>(len) * batch;
  const double flops_per_ms =
      kDpPeakGflops * 1e6 * rows / (rows + kDpHalfRows);
  return kDpBatchOverheadMs + classify_batch_flops(len, batch) / flops_per_ms;
}

RunResult run_classify_varlen(const RunOptions& options) {
  RunResult out;
  const turbo::model::ModelConfig config = model_config();
  const ts::CostTable costs = analytic_costs();
  const Trace trace = make_trace(options.seed);
  SpanRecorder spans(false);

  // Set-up runs from process start until the first server is built and
  // about to take its first request: trace, cost table and weights. The
  // untimed warm-up pass on that server follows; it fills lazily built
  // state and is the reference every timed pass must reproduce.
  Clock::time_point ready;
  const Pass warm = run_pass(trace, costs, spans, &ready);
  out.values["setup_s"] = seconds_between(options.process_start, ready);
  for (size_t k = 0; k < warm.schedule.plans.size(); ++k) {
    out.check("dp plan " + std::to_string(k),
              check_dp_plan(warm.schedule.inputs[k], warm.schedule.plans[k],
                            costs, kMaxBatch));
  }
  std::vector<int64_t> want;
  for (const auto& snap : trace.snapshots) {
    for (const auto& r : snap) want.push_back(r.id);
  }
  out.check("complete once", check_complete_once(want, warm.completed));
  out.attempted = static_cast<long>(trace.requests);
  out.failed = warm.failed;

  // Whole rounds of passes while another round still fits in --seconds.
  std::vector<Pass> timed, traced;
  const Clock::time_point m0 = Clock::now();
  double round_s = 0.0;
  while (timed.size() < 2 ||
         seconds_between(m0, Clock::now()) + round_s <= options.seconds) {
    const Clock::time_point r0 = Clock::now();
    timed.push_back(run_pass(trace, costs, spans));
    if (options.trace) {
      spans.set_enabled(true);
      traced.push_back(run_pass(trace, costs, spans));
      spans.set_enabled(false);
    }
    round_s = seconds_between(r0, Clock::now());
  }
  const double rss = peak_rss_mb();
  for (const auto* set : {&timed, &traced}) {
    for (const Pass& p : *set) {
      out.attempted += static_cast<long>(trace.requests);
      out.failed += p.failed;
      out.check("complete once", check_complete_once(want, p.completed));
      out.check("determinism", check_same_counts(warm.counts, p.counts));
      for (const auto& [id, logits] : warm.logits) {
        const auto it = p.logits.find(id);
        if (it == p.logits.end() || it->second != logits) {
          out.errors.push_back("determinism: request " + std::to_string(id) +
                               " logits differ from the warm-up pass");
          break;
        }
      }
    }
  }

  // float64 reference on a seed-chosen sample of requests, over the weights
  // of a classifier built like the served ones (after the RSS reading, so
  // the checker's copy is not charged to the service).
  {
    turbo::model::SequenceClassifier reference_model(config, kClasses,
                                                     kModelSeed);
    const ClassifierHead head = rebuild_classifier_head(kHidden, kClasses,
                                                        kModelSeed);
    turbo::Rng pick(options.seed ^ 0x5a5a);
    for (int s = 0; s < kReferenceSample; ++s) {
      const auto& snap = trace.snapshots[static_cast<size_t>(
          pick.uniform_int(0, static_cast<int64_t>(trace.snapshots.size()) - 1))];
      const ts::Request& r = snap[static_cast<size_t>(
          pick.uniform_int(0, static_cast<int64_t>(snap.size()) - 1))];
      const std::vector<double> ref = reference_classifier_logits(
          config, reference_model.encoder().weights(), head, r.tokens);
      out.check("reference request " + std::to_string(r.id),
                check_logits_close(warm.logits.at(r.id), ref, kLogitAtol,
                                   kLogitRtol));
    }
  }

  if (!options.trace) {
    // Every pass makes the same serve calls with the same requests, so the
    // times come from each call's fastest time over the timed passes: a
    // request's latency is its call's time, and the pass takes their sum.
    std::vector<std::vector<double>> calls;
    for (const Pass& p : timed) calls.push_back(p.call_ms);
    const std::vector<double> best = fastest_per_unit(calls);
    std::vector<double> lat, per_out;
    double wall_ms = 0;
    for (size_t k = 0; k < trace.snapshots.size(); ++k) {
      const double n = static_cast<double>(trace.snapshots[k].size());
      wall_ms += best[k];
      lat.insert(lat.end(), trace.snapshots[k].size(), best[k]);
      per_out.insert(per_out.end(), trace.snapshots[k].size(), best[k] / n);
    }
    const double rate = static_cast<double>(warm.logits.size()) / (wall_ms / 1e3);
    out.values["requests_per_s"] = rate;
    // A classification request's one output is its label.
    out.values["output_tokens_per_s"] = rate;
    out.values["latency_p50_ms"] = quantile(lat, 0.5);
    out.values["latency_p90_ms"] = quantile(lat, 0.9);
    out.values["ttft_p50_ms"] = quantile(lat, 0.5);
    out.values["ttft_p90_ms"] = quantile(lat, 0.9);
    // A classification request has one output, so the gap analogue is the
    // time each result costs on the service's output stream (call time /
    // results in the call). A pass holds 96 of them, too few for a p99
    // that rests on ten samples, so the tail slot carries the p90.
    out.values["itl_p50_ms"] = quantile(per_out, 0.5);
    out.values["itl_p99_ms"] = quantile(per_out, 0.9);
    out.values["peak_rss_mb"] = rss;
    out.expect(samples_beyond(lat, 0.9) >= 10, "too few latency samples for p90");
    out.expect(samples_beyond(per_out, 0.9) >= 10, "too few samples for p90");
    return out;
  }

  // Traced run: per-layer metrics.
  std::vector<double> sched_us;
  std::vector<std::vector<double>> traced_calls, plain_calls;
  double serve_ms = 0, sched_ms = 0, slots = 0;
  for (const Pass& p : traced) {
    sched_us.insert(sched_us.end(), p.schedule.us.begin(), p.schedule.us.end());
    serve_ms += p.serve_ms;
    for (const double us : p.schedule.us) sched_ms += us / 1e3;
    slots += p.counts.at("padded_slots");
    traced_calls.push_back(p.call_ms);
  }
  for (const Pass& p : timed) plain_calls.push_back(p.call_ms);
  auto& v = out.values;
  v["serving.schedule_us_p50"] = quantile(sched_us, 0.5);
  v["serving.padding_share"] =
      1.0 - warm.counts.at("tokens") / warm.counts.at("padded_slots");
  v["serving.batch_size_mean"] =
      warm.counts.at("requests") / warm.counts.at("batches");
  v["model.classify_us_per_slot"] = (serve_ms - sched_ms) * 1e3 / slots;
  v["memory.encoder_peak_bytes"] = warm.counts.at("encoder_peak_bytes");
  v["memory.encoder_malloc_count"] = warm.counts.at("encoder_malloc_count");
  v["obs.trace_overhead_share"] =
      sum_of(fastest_per_unit(traced_calls)) / sum_of(fastest_per_unit(plain_calls)) -
      1.0;
  const auto self = spans.self_ms();
  const double passes = static_cast<double>(traced.size());
  for (const auto& [layer, ms] : self) v["self." + layer + "_ms"] = ms / passes;
  if (!spans.write_tsv(options.out_dir + "/spans_classify_varlen.tsv")) {
    out.errors.push_back("could not write the span file");
  }
  return out;
}

}  // namespace perfbench
