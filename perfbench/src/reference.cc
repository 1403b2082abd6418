#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.h"

namespace perfbench {

namespace {

using turbo::Tensor;
using turbo::model::ModelConfig;

constexpr double kLnEps = 1e-5;

const float* f32(const Tensor& t) { return t.data<float>(); }

// out[n, cols(W)] = x[n, in] * W[in, out] (+ bias).
Mat linear(const Mat& x, const float* w, int out_cols, const float* bias) {
  Mat y(x.rows, out_cols);
  for (int r = 0; r < x.rows; ++r) {
    const double* xr = x.row(r);
    double* yr = y.row(r);
    for (int k = 0; k < x.cols; ++k) {
      const double a = xr[k];
      const float* wk = w + static_cast<size_t>(k) * out_cols;
      for (int c = 0; c < out_cols; ++c) yr[c] += a * wk[c];
    }
    if (bias != nullptr) {
      for (int c = 0; c < out_cols; ++c) yr[c] += bias[c];
    }
  }
  return y;
}

// x = layernorm(x + residual) row by row (residual may be null).
void add_layernorm(Mat& x, const Mat* residual, const Tensor& gamma,
                   const Tensor& beta) {
  const float* g = f32(gamma);
  const float* b = f32(beta);
  for (int r = 0; r < x.rows; ++r) {
    double* xr = x.row(r);
    if (residual != nullptr) {
      const double* rr = residual->row(r);
      for (int c = 0; c < x.cols; ++c) xr[c] += rr[c];
    }
    double mean = 0.0;
    for (int c = 0; c < x.cols; ++c) mean += xr[c];
    mean /= x.cols;
    double var = 0.0;
    for (int c = 0; c < x.cols; ++c) var += (xr[c] - mean) * (xr[c] - mean);
    var /= x.cols;
    const double inv = 1.0 / std::sqrt(var + kLnEps);
    for (int c = 0; c < x.cols; ++c) xr[c] = g[c] * ((xr[c] - mean) * inv) + b[c];
  }
}

double gelu(double x) {
  const double k = std::sqrt(2.0 / 3.14159265358979323846);
  return 0.5 * x * (1.0 + std::tanh(k * (x + 0.044715 * x * x * x)));
}

// Multi-head attention: queries q[n, H] (column offset q_off in a packed
// row), keys/values k[m, H] / v[m, H]. Query i attends keys [0, limit(i)),
// limit(i) = causal ? key_base + i + 1 : m.
Mat attention(const Mat& q, int q_off, const Mat& k, int k_off, const Mat& v,
              int v_off, int hidden, int heads, bool causal, int key_base) {
  const int d = hidden / heads;
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  Mat out(q.rows, hidden);
  std::vector<double> p(static_cast<size_t>(k.rows));
  for (int i = 0; i < q.rows; ++i) {
    const int limit = causal ? key_base + i + 1 : k.rows;
    for (int h = 0; h < heads; ++h) {
      const double* qi = q.row(i) + q_off + h * d;
      double mx = -std::numeric_limits<double>::infinity();
      for (int j = 0; j < limit; ++j) {
        const double* kj = k.row(j) + k_off + h * d;
        double s = 0.0;
        for (int e = 0; e < d; ++e) s += qi[e] * kj[e];
        p[static_cast<size_t>(j)] = s * scale;
        mx = std::max(mx, p[static_cast<size_t>(j)]);
      }
      double sum = 0.0;
      for (int j = 0; j < limit; ++j) {
        p[static_cast<size_t>(j)] = std::exp(p[static_cast<size_t>(j)] - mx);
        sum += p[static_cast<size_t>(j)];
      }
      double* o = out.row(i) + h * d;
      for (int j = 0; j < limit; ++j) {
        const double w = p[static_cast<size_t>(j)] / sum;
        const double* vj = v.row(j) + v_off + h * d;
        for (int e = 0; e < d; ++e) o[e] += w * vj[e];
      }
    }
  }
  return out;
}

Mat embed(const ModelConfig& config, const turbo::model::EmbeddingWeights& w,
          const std::vector<int>& tokens) {
  const int H = config.hidden;
  Mat x(static_cast<int>(tokens.size()), H);
  for (int t = 0; t < x.rows; ++t) {
    const int tok = tokens[static_cast<size_t>(t)];
    if (tok < 0 || tok >= config.vocab) {
      throw std::invalid_argument("reference: token id out of vocabulary");
    }
    const float* wv = f32(w.word) + static_cast<size_t>(tok) * H;
    const float* pv =
        f32(w.position) + static_cast<size_t>(std::min(t, config.max_pos - 1)) * H;
    for (int c = 0; c < H; ++c) x.row(t)[c] = static_cast<double>(wv[c]) + pv[c];
  }
  add_layernorm(x, nullptr, w.ln_gamma, w.ln_beta);
  return x;
}

Mat from_normal(turbo::Rng& rng, int rows, int cols) {
  std::vector<float> f(static_cast<size_t>(rows) * cols);
  rng.fill_normal(f.data(), f.size(), 0.0f, 0.02f);
  Mat m(rows, cols);
  std::copy(f.begin(), f.end(), m.v.begin());
  return m;
}

}  // namespace

ClassifierHead rebuild_classifier_head(int hidden, int num_classes,
                                       uint64_t seed) {
  turbo::Rng rng(seed ^ 0xc1a55f1e);
  ClassifierHead head;
  head.pooler = from_normal(rng, hidden, hidden);
  head.classifier = from_normal(rng, hidden, num_classes);
  return head;
}

Mat reference_encoder(const ModelConfig& config,
                      const turbo::model::EncoderWeights& weights,
                      const std::vector<int>& tokens) {
  const int H = config.hidden;
  const int I = config.intermediate;
  Mat x = embed(config, weights.embedding, tokens);
  for (int layer = 0; layer < config.num_layers; ++layer) {
    const auto& w = weights.layers[config.share_layer_weights
                                       ? 0
                                       : static_cast<size_t>(layer)];
    const Mat qkv = linear(x, f32(w.qkv_weight), 3 * H, f32(w.qkv_bias));
    const Mat ctx = attention(qkv, 0, qkv, H, qkv, 2 * H, H, config.heads,
                              /*causal=*/false, 0);
    Mat a = linear(ctx, f32(w.attn_out_weight), H, f32(w.attn_out_bias));
    add_layernorm(a, &x, w.ln1_gamma, w.ln1_beta);
    Mat inter = linear(a, f32(w.inter_weight), I, f32(w.inter_bias));
    for (double& e : inter.v) e = gelu(e);
    Mat out = linear(inter, f32(w.out_weight), H, f32(w.out_bias));
    add_layernorm(out, &a, w.ln2_gamma, w.ln2_beta);
    x = std::move(out);
  }
  return x;
}

std::vector<double> reference_classifier_logits(
    const ModelConfig& config, const turbo::model::EncoderWeights& weights,
    const ClassifierHead& head, const std::vector<int>& tokens) {
  const Mat hidden = reference_encoder(config, weights, tokens);
  const int H = config.hidden;
  std::vector<double> pooled(static_cast<size_t>(H), 0.0);
  for (int k = 0; k < H; ++k) {
    const double a = hidden.row(0)[k];
    for (int c = 0; c < H; ++c) pooled[static_cast<size_t>(c)] += a * head.pooler.row(k)[c];
  }
  for (double& p : pooled) p = std::tanh(p);
  const int C = head.classifier.cols;
  std::vector<double> logits(static_cast<size_t>(C), 0.0);
  for (int k = 0; k < H; ++k) {
    for (int c = 0; c < C; ++c) {
      logits[static_cast<size_t>(c)] += pooled[static_cast<size_t>(k)] * head.classifier.row(k)[c];
    }
  }
  return logits;
}

std::vector<std::vector<double>> reference_decoder_logits(
    const ModelConfig& config, const turbo::model::DecoderWeights& weights,
    const std::vector<int>& fed, const Mat* memory, int first_row) {
  const int H = config.hidden;
  const int I = config.intermediate;
  const bool cross = !config.decoder_only;
  if (cross && memory == nullptr) {
    throw std::invalid_argument("reference: seq2seq decoder needs memory");
  }
  Mat x = embed(config, weights.embedding, fed);
  for (int layer = 0; layer < config.num_layers; ++layer) {
    const auto& w = weights.layers[static_cast<size_t>(layer)];
    const Mat qkv = linear(x, f32(w.self_qkv_weight), 3 * H, f32(w.self_qkv_bias));
    const Mat ctx = attention(qkv, 0, qkv, H, qkv, 2 * H, H, config.heads,
                              /*causal=*/true, 0);
    Mat a = linear(ctx, f32(w.self_out_weight), H, f32(w.self_out_bias));
    add_layernorm(a, &x, w.ln1_gamma, w.ln1_beta);
    if (cross) {
      const Mat q = linear(a, f32(w.cross_q_weight), H, f32(w.cross_q_bias));
      const Mat kv =
          linear(*memory, f32(w.cross_kv_weight), 2 * H, f32(w.cross_kv_bias));
      const Mat cctx = attention(q, 0, kv, 0, kv, H, H, config.heads,
                                 /*causal=*/false, 0);
      Mat c = linear(cctx, f32(w.cross_out_weight), H, f32(w.cross_out_bias));
      add_layernorm(c, &a, w.ln2_gamma, w.ln2_beta);
      a = std::move(c);
    }
    Mat inter = linear(a, f32(w.inter_weight), I, f32(w.inter_bias));
    for (double& e : inter.v) e = gelu(e);
    Mat out = linear(inter, f32(w.out_weight), H, f32(w.out_bias));
    add_layernorm(out, &a, w.ln3_gamma, w.ln3_beta);
    x = std::move(out);
  }
  std::vector<std::vector<double>> logits;
  const float* proj = f32(weights.output_proj);
  for (int t = std::max(first_row, 0); t < x.rows; ++t) {
    std::vector<double> row(static_cast<size_t>(config.vocab), 0.0);
    for (int k = 0; k < H; ++k) {
      const double a = x.row(t)[k];
      const float* pk = proj + static_cast<size_t>(k) * config.vocab;
      for (int c = 0; c < config.vocab; ++c) row[static_cast<size_t>(c)] += a * pk[c];
    }
    logits.push_back(std::move(row));
  }
  return logits;
}

}  // namespace perfbench
