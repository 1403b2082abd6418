// Kernel probe for the traced run: the public kernels called at the
// workloads' own shapes, each timed as the median of repeated calls.
// Operation counts and bytes per call are computed from these shapes in
// README.md; the probe only measures time.
#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "kernels/gemm.h"
#include "kernels/paged_attention.h"
#include "kernels/reduction.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Median microseconds per call over batches of calls, ~0.1 s per kernel.
double time_us(const std::function<void()>& call) {
  call();  // first touch
  int per_batch = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < per_batch; ++i) call();
    if (ms_between(t0, Clock::now()) > 5.0 || per_batch >= (1 << 16)) break;
    per_batch *= 2;
  }
  std::vector<double> samples;
  for (int b = 0; b < 20; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < per_batch; ++i) call();
    samples.push_back(ms_between(t0, Clock::now()) * 1e3 / per_batch);
  }
  return median_of(samples);
}

std::vector<float> filled(size_t n, turbo::Rng& rng) {
  std::vector<float> v(n);
  rng.fill_normal(v.data(), n, 0.0f, 0.5f);
  return v;
}

// The four GEMMs of one transformer layer (packed QKV, attention output,
// FFN up, FFN down) at m rows, hidden h, intermediate i.
double layer_gemms_us(int m, int h, int inter, turbo::Rng& rng) {
  const auto x = filled(static_cast<size_t>(m) * inter, rng);
  const auto w = filled(static_cast<size_t>(inter) * 3 * h, rng);
  std::vector<float> y(static_cast<size_t>(m) * std::max(3 * h, inter));
  return time_us([&] {
    turbo::kernels::gemm(x.data(), w.data(), y.data(), m, 3 * h, h);
    turbo::kernels::gemm(x.data(), w.data(), y.data(), m, h, h);
    turbo::kernels::gemm(x.data(), w.data(), y.data(), m, inter, h);
    turbo::kernels::gemm(x.data(), w.data(), y.data(), m, h, inter);
  });
}

}  // namespace

void probe_kernels(std::map<std::string, double>& out) {
  turbo::Rng rng(0x9b0be);
  // classify_varlen: encoder layer at 1024 rows (a batch of ~16 x 64).
  out["kernels.gemm_encoder_us"] = layer_gemms_us(1024, 256, 1024, rng);
  // multitenant_decode: big model's decode step at 8 rows.
  out["kernels.gemm_decode_us"] = layer_gemms_us(8, 256, 1024, rng);

  {  // Masked attention softmax, batch 16 x 4 heads x 64 x 64.
    const int B = 16, heads = 4, S = 64;
    const auto base = filled(static_cast<size_t>(B) * heads * S * S, rng);
    std::vector<float> scores = base;
    std::vector<int> lens(B);
    for (int b = 0; b < B; ++b) lens[static_cast<size_t>(b)] = S - (b * 3) % S;
    out["kernels.softmax_us"] = time_us([&] {
      turbo::kernels::attention_softmax(scores.data(), B, heads, S, S, 0.125f,
                                        lens.data());
    });
  }
  {  // Add-bias + residual + layernorm over 1024 rows x 256.
    const long rows = 1024, cols = 256;
    const auto x = filled(static_cast<size_t>(rows * cols), rng);
    const auto res = filled(static_cast<size_t>(rows * cols), rng);
    const auto vec = filled(static_cast<size_t>(cols), rng);
    std::vector<float> y(static_cast<size_t>(rows * cols));
    out["kernels.layernorm_us"] = time_us([&] {
      turbo::kernels::add_bias_layernorm(y.data(), x.data(), res.data(),
                                         vec.data(), vec.data(), vec.data(),
                                         rows, cols);
    });
  }
  {  // One decode query over 256 cached rows in 16-row blocks, 4 heads x 64.
    const int H = 256, heads = 4, d = 64, block = 16, ctx = 256;
    const auto q = filled(static_cast<size_t>(H), rng);
    std::vector<std::vector<float>> blocks;
    std::vector<turbo::kernels::KvSpan> spans;
    for (int b = 0; b < ctx / block; ++b) {
      blocks.push_back(filled(static_cast<size_t>(2) * block * H, rng));
    }
    for (const auto& blk : blocks) {
      spans.push_back({blk.data(), blk.data() + static_cast<size_t>(block) * H, block});
    }
    std::vector<float> scores(static_cast<size_t>(heads) * ctx), o(static_cast<size_t>(H));
    out["kernels.paged_attention_us"] = time_us([&] {
      turbo::kernels::paged_qk_dot(q.data(), spans.data(),
                                   static_cast<int>(spans.size()), ctx, H,
                                   heads, d, scores.data());
      for (int h = 0; h < heads; ++h) {
        turbo::kernels::softmax_row(scores.data() + static_cast<long>(h) * ctx,
                                    ctx, 0.125f);
      }
      std::fill(o.begin(), o.end(), 0.0f);
      turbo::kernels::paged_av_accumulate(scores.data(), spans.data(),
                                          static_cast<int>(spans.size()), ctx,
                                          H, heads, d, o.data());
    });
  }
}

}  // namespace perfbench
