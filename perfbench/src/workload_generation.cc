// The two generation workloads, driven through the synchronous engines'
// public step loop.
//
// chat_prefix: a decoder-only model serving multi-turn chat through one
// GenerationServer. Every conversation opens with the same long system
// prompt and resends its whole history each turn, so most prompt rows can
// be adopted from the radix prefix cache; prefill runs in token-quantum
// chunks inside the fused step, on a bounded pool under optimistic
// admission.
//
// multitenant_decode: two seq2seq bundles of different sizes on one
// MultiModelGenerationServer, two replicas each behind the SLO router,
// sharing a tight SlabBudget. Short unshared prompts, long outputs, mixed
// priorities: decode GEMV, KV churn, preemption, budget reclaim and
// cross-attention dominate, and there is no prefix reuse at all.
//
// Virtual time: a request is due at a given driver step (one call of the
// engine's step()); the driver submits it right before that step and its
// latency runs on the wall clock from that step's start. Follow-up chat
// turns become due a fixed number of steps after the previous turn
// completes. No decision anywhere depends on a clock: the step-cost gate
// is off, victims are chosen by admission order or priority, the router
// ignores observed costs, and the cost tables stay analytic. Batch
// composition, preemptions and placements are therefore identical in
// every pass, and only time varies: the end-to-end times are read off the
// pass's step structure (which iteration of the driver loop a request was
// due in and streamed each token in) over each iteration's fastest time
// across the timed passes.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "checks.h"
#include "common/rng.h"
#include "genserve/generation_server.h"
#include "genserve/multi_model_server.h"
#include "obs/passes.h"
#include "obs/trace_io.h"
#include "reference.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace gs = turbo::genserve;
namespace ts = turbo::serving;
using turbo::obs::SpanKind;

constexpr int kEos = 2;
constexpr int kBos = 1;
constexpr int kReferenceSample = 3;
// A served token's float64 logit may trail the float64 maximum by this
// much (float32 serving vs float64 reference; near-ties are legitimate).
constexpr double kTokenMargin = 2e-3;

// A request and the driver step at which it becomes due.
struct Arrival {
  int64_t due_step = 0;
  ts::GenerationRequest request;
};

// Arrival process of one pass: the initial requests plus a hook that may
// release follow-ups when a request completes at a given step.
struct Arrivals {
  std::vector<Arrival> initial;
  std::function<std::vector<Arrival>(const ts::GenerationResponse&, int64_t)>
      follow_up;
};

// Per-step engine statistics gathered through the step observer.
struct StepAccum {
  double engine_steps = 0, rows = 0, prefilled = 0, preempted = 0,
         replayed = 0, resumed = 0, evicted = 0;
  bool prefill_now = false;  // any engine prefilled in the current step
  void add(const gs::StepStats& s) {
    if (s.active == 0) return;
    engine_steps += 1;
    rows += s.step_rows;
    prefilled += s.prefilled;
    preempted += s.preempted;
    replayed += s.replayed;
    resumed += s.resumed;
    evicted += s.evicted;
    if (s.prefilled > 0 || s.prefill_chunks > 0) prefill_now = true;
  }
};

// What one engine-side layer reported after a pass.
struct EngineTotals {
  double tokens_streamed = 0, radix_hit_rows = 0, radix_hits = 0,
         radix_evictions = 0, kv_peak_device = 0, kv_peak_waste = 0,
         reclaims = 0, reclaimed_bytes = 0, denial_fallbacks = 0,
         replica_token_spread = 0;
  std::string drained;  // check_drained message
};

struct GenPass {
  double wall_s = 0.0;
  long requests = 0;
  long streamed = 0;
  long failed = 0;  // submitted requests that never completed
  std::vector<int64_t> completed;  // every completion, in arrival order
  // Wall time of each driver-loop iteration (submissions, one engine step,
  // its token callbacks, collecting completions); they sum to wall_s.
  std::vector<double> iter_ms;
  // Per request, in callback order: due iteration to the iteration that
  // streamed the last token (latency) or the first (TTFT); per token after
  // the first, the iterations since the previous token's (gap).
  std::vector<IterRange> latency_iters, ttft_iters, gap_iters;
  std::vector<double> ttft_steps;
  std::vector<double> step_ms, prefill_step_ms, decode_step_ms;
  std::map<int64_t, std::vector<int>> outputs;
  std::map<int64_t, ts::GenerationResponse> responses;
  std::map<int64_t, ts::GenerationRequest> submitted;
  std::map<std::string, double> counts;
  std::vector<std::string> errors;
  std::vector<turbo::obs::TraceSpan> ring;
  double prompt_rows = 0;
  EngineTotals totals;
};

struct Track {
  int64_t due_step = 0;
  int64_t due_iter = 0;
  int64_t last_iter = 0;  // iteration of the latest streamed token
  bool first_seen = false;
  StreamLog log;
};

// Serves one pass of a fixture's trace on a fresh engine. `ready`, when
// given, receives the time the engine was built and about to take its first
// request.
template <class Fixture>
GenPass run_gen_pass(Fixture& fx, bool traced, SpanRecorder& spans,
                     Clock::time_point* ready = nullptr) {
  GenPass p;
  auto engine = fx.make(traced);
  if (ready != nullptr) *ready = Clock::now();
  StepAccum acc;
  fx.observe(*engine, &acc);
  Arrivals arrivals = fx.arrivals();

  // Due-ordered queue; the sequence number keeps submission order stable.
  std::map<std::pair<int64_t, int64_t>, ts::GenerationRequest> queue;
  int64_t seq_no = 0;
  for (Arrival& a : arrivals.initial) {
    queue.emplace(std::make_pair(a.due_step, seq_no++), std::move(a.request));
  }
  std::unordered_map<int64_t, Track> track;
  int64_t step = 0, iter = 0;
  double ttft_step_sum = 0, done_step_sum = 0;

  ScopedSpan pass_span(spans, "pass");
  const Clock::time_point t0 = Clock::now();
  Clock::time_point iter_start = t0;
  while (!queue.empty() || !engine->idle()) {
    if (engine->idle() && queue.begin()->first.first > step) {
      step = queue.begin()->first.first;
    }
    while (!queue.empty() && queue.begin()->first.first <= step) {
      ts::GenerationRequest req = std::move(queue.begin()->second);
      queue.erase(queue.begin());
      const int64_t id = req.id;
      Track& tr = track[id];
      tr.due_step = step;
      tr.due_iter = iter;
      p.prompt_rows += static_cast<double>(req.src_tokens.size());
      p.submitted[id] = req;
      ScopedSpan submit_span(spans, "submit", id);
      engine->submit(std::move(req), [&, id](int64_t, int token, int pos,
                                             bool last) {
        ScopedSpan cb_span(spans, "callback", id);
        Track& t = track[id];
        if (!t.first_seen) {
          t.first_seen = true;
          p.ttft_iters.emplace_back(t.due_iter, iter);
          p.ttft_steps.push_back(static_cast<double>(step - t.due_step));
          ttft_step_sum += static_cast<double>(step - t.due_step);
        } else {
          p.gap_iters.emplace_back(t.last_iter + 1, iter);
        }
        t.last_iter = iter;
        t.log.tokens.push_back(token);
        t.log.steps.push_back(pos);
        t.log.last.push_back(last);
        ++p.streamed;
        if (last) p.latency_iters.emplace_back(t.due_iter, iter);
      });
    }
    acc.prefill_now = false;
    const Clock::time_point s0 = Clock::now();
    {
      ScopedSpan step_span(spans, "step");
      engine->step();
    }
    const double ms = ms_between(s0, Clock::now());
    if (spans.enabled()) {
      p.step_ms.push_back(ms);
      (acc.prefill_now ? p.prefill_step_ms : p.decode_step_ms).push_back(ms);
    }
    for (ts::GenerationResponse& r : engine->take_completed()) {
      done_step_sum += static_cast<double>(step);
      p.completed.push_back(r.request_id);
      for (Arrival& a : arrivals.follow_up(r, step)) {
        queue.emplace(std::make_pair(a.due_step, seq_no++), std::move(a.request));
      }
      p.outputs[r.request_id] = r.tokens;
      p.responses[r.request_id] = std::move(r);
    }
    const Clock::time_point iter_end = Clock::now();
    p.iter_ms.push_back(ms_between(iter_start, iter_end));
    iter_start = iter_end;
    ++step;
    ++iter;
  }
  p.wall_s = seconds_between(t0, iter_start);
  std::fprintf(stderr,
               "perfbench_serve: pass %.4f s, %lld steps, %ld tokens, "
               "%.0f preempted, %.0f replayed\n",
               p.wall_s, static_cast<long long>(step), p.streamed, acc.preempted,
               acc.replayed);
  p.requests = static_cast<long>(p.responses.size());
  p.failed = static_cast<long>(p.submitted.size() - p.responses.size());
  if (traced) p.ring = engine->trace_spans();

  // Conservation: every request exactly once, gapless streams that sum to
  // the engines' own token counters, every KV and budget byte returned.
  std::vector<int64_t> want;
  for (const auto& [id, _] : p.submitted) want.push_back(id);
  if (auto m = check_complete_once(want, p.completed); !m.empty()) {
    p.errors.push_back("complete once: " + m);
  }
  for (const auto& [id, resp] : p.responses) {
    if (auto m = check_stream(resp, track[id].log, kEos); !m.empty()) {
      p.errors.push_back("stream: " + m);
    }
  }
  p.totals = fx.totals(*engine);
  if (p.totals.tokens_streamed != static_cast<double>(p.streamed)) {
    p.errors.push_back("stream: callbacks saw " + std::to_string(p.streamed) +
                       " tokens, registry tokens_streamed says " +
                       std::to_string(static_cast<long>(p.totals.tokens_streamed)));
  }
  if (!p.totals.drained.empty()) p.errors.push_back("drain: " + p.totals.drained);

  p.counts = {{"steps", static_cast<double>(step)},
              {"iterations", static_cast<double>(iter)},
              {"engine_steps", acc.engine_steps},
              {"rows", acc.rows},
              {"prefilled", acc.prefilled},
              {"preempted", acc.preempted},
              {"replayed", acc.replayed},
              {"resumed", acc.resumed},
              {"evicted", acc.evicted},
              {"streamed", static_cast<double>(p.streamed)},
              {"ttft_step_sum", ttft_step_sum},
              {"done_step_sum", done_step_sum},
              {"radix_hits", p.totals.radix_hits},
              {"radix_hit_rows", p.totals.radix_hit_rows},
              {"radix_evictions", p.totals.radix_evictions},
              {"kv_peak_device", p.totals.kv_peak_device},
              {"kv_peak_waste", p.totals.kv_peak_waste},
              {"reclaims", p.totals.reclaims},
              {"reclaimed_bytes", p.totals.reclaimed_bytes},
              {"denial_fallbacks", p.totals.denial_fallbacks}};
  return p;
}

// Float64 reference and uncontended re-serve for a seed-chosen sample of
// the warm-up pass's requests.
template <class Fixture>
void check_sample(Fixture& fx, const GenPass& warm, uint64_t seed,
                  RunResult& out) {
  std::vector<int64_t> ids;
  for (const auto& [id, _] : warm.responses) ids.push_back(id);
  turbo::Rng pick(seed ^ 0xa11ce);
  for (int s = 0; s < kReferenceSample && !ids.empty(); ++s) {
    const int64_t id = ids[static_cast<size_t>(
        pick.uniform_int(0, static_cast<int64_t>(ids.size()) - 1))];
    const ts::GenerationRequest& req = warm.submitted.at(id);
    const ts::GenerationResponse& resp = warm.responses.at(id);
    const std::shared_ptr<gs::ModelBundle> bundle_ptr = fx.bundle_of(req);
    const gs::ModelBundle& bundle = *bundle_ptr;
    const std::string label = "request " + std::to_string(id);

    // Teacher-force the float64 model on the served tokens; the row that
    // follows the last token must pick EOS when the request stopped on it.
    std::vector<int> checked = resp.tokens;
    if (!resp.hit_max_len) checked.push_back(kEos);
    std::vector<int> fed;
    int first_row = 0;
    Mat memory;
    if (bundle.decoder_only()) {
      fed = req.src_tokens;
      first_row = static_cast<int>(fed.size()) - 1;
    } else {
      memory = reference_encoder(bundle.config, bundle.encoder->weights(),
                                 req.src_tokens);
      fed = {kBos};
    }
    fed.insert(fed.end(), resp.tokens.begin(), resp.tokens.end());
    const auto rows = reference_decoder_logits(
        bundle.config, bundle.decoder->weights(), fed,
        bundle.decoder_only() ? nullptr : &memory, first_row);
    out.check("reference " + label, check_token_margins(rows, checked, kTokenMargin));

    // The same request alone on a fresh, uncontended engine.
    gs::GenerationServer alone(bundle_ptr);
    alone.submit(req);
    const auto solo = alone.run_to_completion();
    if (solo.size() != 1 || solo[0].tokens != resp.tokens) {
      out.errors.push_back("uncontended re-serve of " + label +
                           " produced different tokens");
    }
  }
}

// Runs warm-up, timed passes and the checks, then fills the metrics.
template <class Fixture>
RunResult run_generation(Fixture& fx, const RunOptions& options,
                         const std::string& workload) {
  RunResult out;
  SpanRecorder spans(false);
  // Set-up runs from process start until the first engine is built and
  // about to take its first request: trace, weights, engine. The untimed
  // warm-up pass on that engine follows; every timed pass must reproduce it.
  Clock::time_point ready;
  const GenPass warm = run_gen_pass(fx, false, spans, &ready);
  out.values["setup_s"] = seconds_between(options.process_start, ready);
  for (const std::string& e : warm.errors) out.errors.push_back("warm-up " + e);

  // Whole rounds of passes while another round still fits in --seconds.
  std::vector<GenPass> timed, traced;
  const Clock::time_point m0 = Clock::now();
  double round_s = 0.0;
  while (timed.size() < 2 ||
         seconds_between(m0, Clock::now()) + round_s <= options.seconds) {
    const Clock::time_point r0 = Clock::now();
    timed.push_back(run_gen_pass(fx, false, spans));
    if (options.trace) {
      spans.set_enabled(true);
      traced.push_back(run_gen_pass(fx, true, spans));
      spans.set_enabled(false);
    }
    round_s = seconds_between(r0, Clock::now());
  }
  const double rss = peak_rss_mb();
  check_sample(fx, warm, options.seed, out);
  out.attempted = static_cast<long>(warm.submitted.size());
  out.failed = warm.failed;
  for (const auto* set : {&timed, &traced}) {
    for (const GenPass& p : *set) {
      out.attempted += static_cast<long>(p.submitted.size());
      out.failed += p.failed;
      for (const std::string& e : p.errors) out.errors.push_back(e);
      out.check("determinism", check_same_outputs(warm.outputs, p.outputs));
      out.check("determinism", check_same_counts(warm.counts, p.counts));
      out.check("determinism", check_same_ranges(warm.latency_iters, p.latency_iters));
      out.check("determinism", check_same_ranges(warm.ttft_iters, p.ttft_iters));
      out.check("determinism", check_same_ranges(warm.gap_iters, p.gap_iters));
    }
  }

  if (!options.trace) {
    // Every pass runs the same iterations (checked above), so the times come
    // from each iteration's fastest time over the timed passes, summed over
    // the iterations each latency, TTFT or gap spans.
    std::vector<std::vector<double>> iters;
    for (const GenPass& p : timed) iters.push_back(p.iter_ms);
    const std::vector<double> best = fastest_per_unit(iters);
    std::vector<double> upto(best.size() + 1, 0.0);  // prefix sums
    std::partial_sum(best.begin(), best.end(), upto.begin() + 1);
    auto times = [&upto](const std::vector<IterRange>& ranges) {
      std::vector<double> ms;
      for (const auto& [first, last] : ranges) {
        ms.push_back(upto[static_cast<size_t>(last) + 1] -
                     upto[static_cast<size_t>(first)]);
      }
      return ms;
    };
    const std::vector<double> lat = times(warm.latency_iters);
    const std::vector<double> ttft = times(warm.ttft_iters);
    const std::vector<double> itl = times(warm.gap_iters);
    const double wall_s = upto.back() / 1e3;
    auto& v = out.values;
    v["requests_per_s"] = static_cast<double>(warm.requests) / wall_s;
    v["output_tokens_per_s"] = static_cast<double>(warm.streamed) / wall_s;
    v["latency_p50_ms"] = quantile(lat, 0.5);
    v["latency_p90_ms"] = quantile(lat, 0.9);
    v["ttft_p50_ms"] = quantile(ttft, 0.5);
    v["ttft_p90_ms"] = quantile(ttft, 0.9);
    v["itl_p50_ms"] = quantile(itl, 0.5);
    v["itl_p99_ms"] = quantile(itl, 0.99);
    v["peak_rss_mb"] = rss;
    out.expect(samples_beyond(lat, 0.9) >= 10, "too few latency samples for p90");
    out.expect(samples_beyond(itl, 0.99) >= 10, "too few gap samples for p99");
    return out;
  }

  std::vector<double> step_ms, prefill_ms, decode_ms;
  std::vector<std::vector<double>> traced_iters, plain_iters;
  for (const GenPass& p : traced) {
    step_ms.insert(step_ms.end(), p.step_ms.begin(), p.step_ms.end());
    prefill_ms.insert(prefill_ms.end(), p.prefill_step_ms.begin(), p.prefill_step_ms.end());
    decode_ms.insert(decode_ms.end(), p.decode_step_ms.begin(), p.decode_step_ms.end());
    traced_iters.push_back(p.iter_ms);
  }
  for (const GenPass& p : timed) plain_iters.push_back(p.iter_ms);
  const auto& c = warm.counts;
  auto& v = out.values;
  v["genserve.steps"] = c.at("steps");
  v["genserve.ttft_steps_p50"] = quantile(warm.ttft_steps, 0.5);
  v["genserve.step_ms_p50"] = quantile(step_ms, 0.5);
  v["genserve.decode_step_ms_p50"] = quantile(decode_ms, 0.5);
  v["genserve.prefill_step_ms_p50"] = quantile(prefill_ms, 0.5);
  v["genserve.rows_per_step_mean"] = c.at("rows") / c.at("engine_steps");
  v["genserve.prefill_tokens"] = c.at("prefilled");
  v["genserve.prefix_hit_share"] = c.at("radix_hit_rows") / warm.prompt_rows;
  v["genserve.radix_evictions"] = c.at("radix_evictions");
  v["genserve.preemptions"] = c.at("preempted");
  v["genserve.replayed_rows"] = c.at("replayed");
  v["memory.kv_peak_device_bytes"] = c.at("kv_peak_device");
  v["memory.kv_peak_waste_bytes"] = c.at("kv_peak_waste");
  v["memory.budget_reclaims"] = c.at("reclaims");
  v["memory.budget_reclaimed_bytes"] = c.at("reclaimed_bytes");
  v["router.denial_fallbacks"] = c.at("denial_fallbacks");
  v["router.replica_token_spread"] = warm.totals.replica_token_spread;
  v["obs.trace_overhead_share"] =
      sum_of(fastest_per_unit(traced_iters)) / sum_of(fastest_per_unit(plain_iters)) -
      1.0;

  const GenPass& last = traced.back();
  const turbo::obs::PhaseAttribution phases =
      turbo::obs::attribute_phases(last.ring);
  const std::pair<SpanKind, const char*> phase_names[] = {
      {SpanKind::kAdmit, "admit"},
      {SpanKind::kEncodePrefill, "prefill"},
      {SpanKind::kDecodeStep, "decode"},
      {SpanKind::kStream, "stream"}};
  for (const auto& [kind, name] : phase_names) {
    double share = 0;
    for (const auto& ph : phases.phases) {
      if (ph.kind == kind) share = ph.fraction;
    }
    v[std::string("genserve.phase.") + name + "_share"] = share;
  }
  const auto self = spans.self_ms();
  for (const auto& [layer, ms] : self) {
    v["self." + layer + "_ms"] = ms / static_cast<double>(traced.size());
  }
  if (!spans.write_tsv(options.out_dir + "/spans_" + workload + ".tsv")) {
    out.errors.push_back("could not write the span file");
  }
  turbo::obs::write_trace_file(options.out_dir + "/engine_trace_" + workload + ".tsv",
                               last.ring);
  return out;
}

// Stratified draw of n integers covering [lo, hi] evenly, then shuffled:
// the draws spread evenly over the range, in a random order.
std::vector<int> stratified(turbo::Rng& rng, int n, int lo, int hi) {
  std::vector<int> xs(static_cast<size_t>(n));
  const int span = hi - lo + 1;
  for (int i = 0; i < n; ++i) {
    xs[static_cast<size_t>(i)] = lo + static_cast<int>((i + rng.uniform()) * span / n);
  }
  for (int i = n - 1; i > 0; --i) {
    std::swap(xs[static_cast<size_t>(i)], xs[static_cast<size_t>(rng.uniform_int(0, i))]);
  }
  return xs;
}

// ---------------------------------------------------------------------------
// chat_prefix
// ---------------------------------------------------------------------------

constexpr int kChatVocab = 2048;
constexpr int kChatSystem = 256;   // shared system prompt, block-aligned
constexpr int kChatConversations = 36;
constexpr int kChatTurns = 3;
constexpr int kChatUserMin = 8;
constexpr int kChatUserMax = 24;
constexpr int kChatMaxNew = 12;
constexpr int kChatOpenGap = 6;     // mean steps between conversation openings
constexpr int kChatThinkSteps = 4;  // steps between a reply and the next turn
constexpr int kChatBlockTokens = 16;
constexpr int kChatPoolBlocks = 192;
constexpr int kChatQuantum = 64;
constexpr uint64_t kChatShapeSeed = 0xc4a7;

struct ChatFixture {
  std::shared_ptr<gs::ModelBundle> bundle;
  std::vector<int> system_prompt;
  std::vector<std::vector<std::vector<int>>> user;  // [conversation][turn]
  std::vector<int> open_step;                       // [conversation]

  explicit ChatFixture(uint64_t seed) {
    auto c = turbo::model::ModelConfig::tiny_causal(4, 256, 4, 1024, kChatVocab);
    c.name = "chat";
    bundle = gs::make_decoder_only_bundle("chat", 1, c, 11);
    // The shape (turn lengths and opening steps) comes from a fixed draw
    // that is the same for every seed; the seed draws only the token ids.
    turbo::Rng shape(kChatShapeSeed);
    turbo::Rng rng(seed * 0x2545f4914f6cdd1dULL + 0xc4a7);
    system_prompt = rng.token_ids(kChatSystem, kChatVocab);
    const std::vector<int> lens = stratified(
        shape, kChatConversations * kChatTurns, kChatUserMin, kChatUserMax);
    // Openings: one per kChatOpenGap-step stratum, at a drawn step.
    for (int conv = 0; conv < kChatConversations; ++conv) {
      open_step.push_back(
          static_cast<int>((conv + shape.uniform()) * kChatOpenGap));
    }
    user.assign(kChatConversations, {});
    for (int conv = 0; conv < kChatConversations; ++conv) {
      for (int t = 0; t < kChatTurns; ++t) {
        user[static_cast<size_t>(conv)].push_back(rng.token_ids(
            lens[static_cast<size_t>(conv * kChatTurns + t)], kChatVocab));
      }
    }
  }

  std::unique_ptr<gs::GenerationServer> make(bool traced) const {
    gs::GenServerOptions o;
    o.pool.block_tokens = kChatBlockTokens;
    o.pool.blocks_per_slab = 8;
    o.pool.max_bytes = static_cast<size_t>(kChatPoolBlocks) * kChatBlockTokens *
                       2 * bundle->config.hidden * sizeof(float);
    o.scheduler.max_active = kChatConversations;
    o.scheduler.optimistic_admission = true;
    o.scheduler.step_token_quantum = kChatQuantum;
    o.trace.enabled = traced;
    return std::make_unique<gs::GenerationServer>(bundle, o);
  }
  void observe(gs::GenerationServer& e, StepAccum* acc) const {
    e.set_step_observer([acc](const gs::StepStats& s) { acc->add(s); });
  }

  Arrivals arrivals() const {
    auto history = std::make_shared<std::vector<std::vector<int>>>(
        kChatConversations, system_prompt);
    auto make_turn = [this, history](int conv, int turn, int64_t due) {
      auto& h = (*history)[static_cast<size_t>(conv)];
      const auto& u = user[static_cast<size_t>(conv)][static_cast<size_t>(turn)];
      h.insert(h.end(), u.begin(), u.end());
      Arrival a;
      a.due_step = due;
      a.request.id = conv * kChatTurns + turn;
      a.request.src_tokens = h;
      a.request.max_new_tokens = kChatMaxNew;
      a.request.bos_id = kBos;
      a.request.eos_id = kEos;
      return a;
    };
    Arrivals out;
    for (int conv = 0; conv < kChatConversations; ++conv) {
      out.initial.push_back(
          make_turn(conv, 0, open_step[static_cast<size_t>(conv)]));
    }
    out.follow_up = [history, make_turn](const ts::GenerationResponse& r,
                                         int64_t step) {
      const int conv = static_cast<int>(r.request_id / kChatTurns);
      const int turn = static_cast<int>(r.request_id % kChatTurns);
      auto& h = (*history)[static_cast<size_t>(conv)];
      h.insert(h.end(), r.tokens.begin(), r.tokens.end());
      std::vector<Arrival> next;
      if (turn + 1 < kChatTurns) {
        next.push_back(make_turn(conv, turn + 1, step + kChatThinkSteps));
      }
      return next;
    };
    return out;
  }

  EngineTotals totals(const gs::GenerationServer& e) const {
    const auto& reg = *e.metrics();
    const std::string p = e.metric_prefix();
    const gs::PoolSnapshot pool = e.pool_snapshot();
    EngineTotals t;
    t.tokens_streamed = static_cast<double>(reg.counter_value(p + "tokens_streamed"));
    t.radix_hits = static_cast<double>(reg.counter_value(p + "radix_hits"));
    t.radix_hit_rows = static_cast<double>(reg.counter_value(p + "radix_hit_rows"));
    t.radix_evictions = static_cast<double>(reg.counter_value(p + "radix_evictions"));
    t.kv_peak_device = static_cast<double>(pool.peak_device_bytes);
    t.kv_peak_waste = static_cast<double>(pool.peak_waste_bytes);
    t.drained = check_drained(pool.charged_bytes, 0, pool.active_sequences);
    return t;
  }

  std::shared_ptr<gs::ModelBundle> bundle_of(const ts::GenerationRequest&) const {
    return bundle;
  }
};

// ---------------------------------------------------------------------------
// multitenant_decode
// ---------------------------------------------------------------------------

constexpr int kTenantVocab = 2048;
constexpr int kTenantRequests = 96;  // per pass, half per model
constexpr int kTenantSrcMin = 6;
constexpr int kTenantSrcMax = 16;
constexpr int kTenantNewMin = 32;
constexpr int kTenantNewMax = 64;
constexpr int kTenantBurst = 8;  // 2 models x 4 priorities
constexpr int kTenantBurstGap = 36;
constexpr int kTenantBlockTokens = 16;
constexpr size_t kKiB = 1024;
constexpr size_t kTenantBudget = 2816 * kKiB;
constexpr size_t kTenantBigGuarantee = 1920 * kKiB;
constexpr size_t kTenantSmallGuarantee = 704 * kKiB;
// SLO classes via priority: tight (2), standard (0), batch (-1).
constexpr int kTenantPriorities[] = {2, 0, 0, -1};
// Fixed seed of the trace's shape (lengths, priorities, order).
constexpr uint64_t kTenantShapeSeed = 0x7e4a;

struct TenantFixture {
  std::shared_ptr<gs::ModelBundle> big, small;
  std::vector<Arrival> trace;

  explicit TenantFixture(uint64_t seed) {
    auto cb = turbo::model::ModelConfig::tiny(4, 256, 4, 1024, kTenantVocab);
    cb.name = "big";
    big = gs::make_bundle("big", 1, cb, 21);
    auto cs = turbo::model::ModelConfig::tiny(2, 128, 4, 512, kTenantVocab);
    cs.name = "small";
    small = gs::make_bundle("small", 1, cs, 22);

    // Every burst carries the same mix: per model one request of each
    // priority in kTenantPriorities, with prompt and output lengths
    // stratified over their ranges. The lengths, their pairing with
    // priorities and the order within a burst come from a fixed draw that
    // is the same for every seed; the seed draws only the token ids. How
    // often a preempted sequence is preempted again depends steeply on the
    // lengths (see README.md), so a seed-drawn shape would pick the
    // preemption regime a run falls into.
    turbo::Rng shape(kTenantShapeSeed);
    turbo::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7e4a);
    constexpr int kPerModel = static_cast<int>(std::size(kTenantPriorities));
    for (int burst = 0; burst < kTenantRequests / kTenantBurst; ++burst) {
      std::vector<Arrival> group;
      for (int m = 0; m < 2; ++m) {
        const auto src = stratified(shape, kPerModel, kTenantSrcMin, kTenantSrcMax);
        const auto out = stratified(shape, kPerModel, kTenantNewMin, kTenantNewMax);
        for (int i = 0; i < kPerModel; ++i) {
          const size_t k = static_cast<size_t>(i);
          Arrival a;
          a.due_step = burst * kTenantBurstGap;
          a.request.model = m == 0 ? "big" : "small";
          a.request.src_tokens.resize(static_cast<size_t>(src[k]));
          a.request.max_new_tokens = out[k];
          a.request.priority = kTenantPriorities[k];
          group.push_back(std::move(a));
        }
      }
      for (int i = static_cast<int>(group.size()) - 1; i > 0; --i) {
        std::swap(group[static_cast<size_t>(i)],
                  group[static_cast<size_t>(shape.uniform_int(0, i))]);
      }
      for (Arrival& a : group) {
        a.request.src_tokens =
            rng.token_ids(static_cast<int>(a.request.src_tokens.size()), kTenantVocab);
      }
      for (Arrival& a : group) {
        a.request.id = static_cast<int64_t>(trace.size());
        a.request.bos_id = kBos;
        a.request.eos_id = kEos;
        trace.push_back(std::move(a));
      }
    }
  }

  std::unique_ptr<gs::MultiModelGenerationServer> make(bool traced) const {
    gs::MultiModelOptions o;
    o.total_kv_bytes = kTenantBudget;
    o.engine.pool.block_tokens = kTenantBlockTokens;
    o.engine.pool.blocks_per_slab = 4;
    o.engine.scheduler.max_active = 8;
    o.engine.scheduler.victim_policy =
        gs::GenSchedulerOptions::VictimPolicy::kLowestPriority;
    o.engine.trace.enabled = traced;
    o.replicas_per_model = 2;
    o.router.use_observed_cost = false;
    auto server = std::make_unique<gs::MultiModelGenerationServer>(o);
    server->register_bundle(big, kTenantBigGuarantee);
    server->register_bundle(small, kTenantSmallGuarantee);
    return server;
  }
  void observe(gs::MultiModelGenerationServer& e, StepAccum* acc) const {
    e.set_step_observer(
        [acc](const std::string&, int, const gs::StepStats& s) { acc->add(s); });
  }
  Arrivals arrivals() const {
    Arrivals a;
    a.initial = trace;
    a.follow_up = [](const ts::GenerationResponse&, int64_t) {
      return std::vector<Arrival>{};
    };
    return a;
  }

  EngineTotals totals(const gs::MultiModelGenerationServer& e) const {
    const auto& reg = *e.metrics();
    EngineTotals t;
    std::map<std::string, std::vector<double>> per_model_tokens;
    size_t charged = 0;
    int active = 0;
    for (const gs::ModelServingStats& s : e.stats()) {
      const std::string p = "gen." + s.label + ".";
      const double tokens = static_cast<double>(reg.counter_value(p + "tokens_streamed"));
      t.tokens_streamed += tokens;
      per_model_tokens[s.name].push_back(tokens);
      t.radix_hits += static_cast<double>(reg.counter_value(p + "radix_hits"));
      t.radix_hit_rows += static_cast<double>(reg.counter_value(p + "radix_hit_rows"));
      t.radix_evictions += static_cast<double>(reg.counter_value(p + "radix_evictions"));
      t.kv_peak_device += static_cast<double>(s.pool.peak_device_bytes);
      t.kv_peak_waste += static_cast<double>(s.pool.peak_waste_bytes);
      charged += s.pool.charged_bytes;
      active += s.pool.active_sequences;
    }
    for (const auto& [_, tokens] : per_model_tokens) {
      const auto [lo, hi] = std::minmax_element(tokens.begin(), tokens.end());
      t.replica_token_spread = std::max(
          t.replica_token_spread, *lo > 0 ? *hi / *lo : *hi);
    }
    t.reclaims = static_cast<double>(reg.counter_value("gen.server.reclaims"));
    t.reclaimed_bytes = static_cast<double>(reg.counter_value("gen.server.reclaimed_bytes"));
    t.denial_fallbacks = static_cast<double>(reg.counter_value("router.denial_fallbacks"));
    t.drained = check_drained(charged, e.budget().used_bytes(), active);
    return t;
  }

  std::shared_ptr<gs::ModelBundle> bundle_of(const ts::GenerationRequest& r) const {
    return r.model == "big" ? big : small;
  }
};

}  // namespace

RunResult run_chat_prefix(const RunOptions& options) {
  ChatFixture fx(options.seed);
  return run_generation(fx, options, "chat_prefix");
}

RunResult run_multitenant_decode(const RunOptions& options) {
  TenantFixture fx(options.seed);
  return run_generation(fx, options, "multitenant_decode");
}

}  // namespace perfbench
