// Independent float64 reference forward passes.
//
// Plain loops over the models' public weights (EncoderModel::weights(),
// Seq2SeqDecoder::weights()); nothing here calls into model/ or kernels/,
// so a fault in the library's kernels, fusion, allocator plan or KV paging
// cannot cancel out of the comparison. The layer recipe mirrors the
// documented model layout: post-LN BERT blocks with packed QKV
// (columns Q | K | V), tanh-GELU, layernorm eps 1e-5, and a decoder with
// cached causal self-attention, optional cross-attention over the encoder
// memory (K | V packed), feed-forward, and an unbiased output projection.
#pragma once

#include <cstdint>
#include <vector>

#include "model/config.h"
#include "model/weights.h"

namespace perfbench {

// Row-major float64 matrix.
struct Mat {
  int rows = 0;
  int cols = 0;
  std::vector<double> v;

  Mat() = default;
  Mat(int r, int c) : rows(r), cols(c), v(static_cast<size_t>(r) * c, 0.0) {}
  double* row(int r) { return v.data() + static_cast<size_t>(r) * cols; }
  const double* row(int r) const {
    return v.data() + static_cast<size_t>(r) * cols;
  }
};

// The classifier head (pooler [H, H] + classifier [H, C], zero biases).
// SequenceClassifier keeps these private; they are regenerated from the
// classifier's seed with the library's documented RNG (common/rng.h),
// drawing in the order SequenceClassifier's constructor does.
struct ClassifierHead {
  Mat pooler;      // [H, H]
  Mat classifier;  // [H, C]
};
ClassifierHead rebuild_classifier_head(int hidden, int num_classes,
                                       uint64_t seed);

// Encoder hidden states [len, H] for one unpadded sequence.
Mat reference_encoder(const turbo::model::ModelConfig& config,
                      const turbo::model::EncoderWeights& weights,
                      const std::vector<int>& tokens);

// Classifier logits [C] for one unpadded sequence.
std::vector<double> reference_classifier_logits(
    const turbo::model::ModelConfig& config,
    const turbo::model::EncoderWeights& weights, const ClassifierHead& head,
    const std::vector<int>& tokens);

// Teacher-forced decoder logits. `fed` holds the tokens fed at positions
// 0..n-1 (causal: prompt then generated tokens; seq2seq: BOS then
// generated tokens). Row r of the result holds the vocabulary logits
// produced at position first_row + r, for every position up to n - 1.
// `memory` is the encoder output for seq2seq models, null for
// decoder-only ones.
std::vector<std::vector<double>> reference_decoder_logits(
    const turbo::model::ModelConfig& config,
    const turbo::model::DecoderWeights& weights, const std::vector<int>& fed,
    const Mat* memory, int first_row);

}  // namespace perfbench
