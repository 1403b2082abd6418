// perfbench_calibrate: derives the three constants of classify_varlen's
// analytic DP cost (kDpPeakGflops, kDpHalfRows, kDpBatchOverheadMs in
// workloads.h) from measurements on the host it runs on, then compares the
// resulting cost model with the served model's measured forward times.
//
//   OMP_NUM_THREADS=1 .bench_build/perfbench/perfbench_calibrate
//
// (run it with the team size run.py gives the benchmark).
//
// The cost model is ms = overhead + flops / rate(rows), with
// rate(rows) = peak * rows / (rows + half):
//   peak     = the rate of one encoder layer's four GEMMs at 1024 rows;
//   half     = 8 * (peak / rate8 - 1), where rate8 is the same GEMMs' rate
//              at 8 rows, so that rate(8) = rate8; 0 when rate8 >= peak
//              (stacking rows gains nothing);
//   overhead = the forward time of a [1, 2] batch minus its FLOPs at
//              rate(2), at least 0.
// The benchmark itself never times anything to plan its batches.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "model/classifier.h"
#include "workloads.h"

namespace {

using perfbench::Clock;

// FLOPs of the four GEMMs of one encoder layer at m rows.
double layer_gemm_flops(int m) {
  const double h = 256, inter = 1024;
  return 2.0 * m * (3 * h * h + h * h + 2 * h * inter);
}

// Median wall milliseconds of one classify() call at [batch, len].
double forward_ms(turbo::model::SequenceClassifier& model, int len, int batch) {
  turbo::Tensor ids = turbo::Tensor::zeros(turbo::Shape{batch, len},
                                           turbo::DType::kI32);
  for (long i = 0; i < static_cast<long>(batch) * len; ++i) {
    ids.data<int32_t>()[i] = static_cast<int32_t>(3 + (i * 7919) % 8000);
  }
  const std::vector<int> lens(static_cast<size_t>(batch), len);
  model.classify(ids, &lens);  // first touch and allocator plan
  std::vector<double> ms;
  for (int r = 0; r < 7; ++r) {
    const Clock::time_point t0 = Clock::now();
    model.classify(ids, &lens);
    ms.push_back(perfbench::ms_between(t0, Clock::now()));
  }
  return perfbench::median_of(ms);
}

}  // namespace

int main() {
  std::map<std::string, double> probe;
  perfbench::probe_kernels(probe);
  const double peak = layer_gemm_flops(1024) / probe.at("kernels.gemm_encoder_us") / 1e3;
  const double rate8 = layer_gemm_flops(8) / probe.at("kernels.gemm_decode_us") / 1e3;
  const double half = std::max(0.0, 8.0 * (peak / rate8 - 1.0));
  auto model = perfbench::make_classifier();
  const double tiny_ms = forward_ms(*model, 2, 1);
  const double overhead = std::max(
      0.0, tiny_ms - perfbench::classify_batch_flops(2, 1) /
                         (peak * 1e6 * 2 / (2 + half)));
  std::printf("gemm rate at 1024 rows: %.2f GFLOP/s (%.0f us)\n", peak,
              probe.at("kernels.gemm_encoder_us"));
  std::printf("gemm rate at 8 rows:    %.2f GFLOP/s (%.1f us)\n", rate8,
              probe.at("kernels.gemm_decode_us"));
  std::printf("forward [1, 2]:         %.3f ms\n", tiny_ms);
  std::printf("derived: kDpPeakGflops %.1f  kDpHalfRows %.1f  kDpBatchOverheadMs %.2f\n",
              peak, half, overhead);
  std::printf("in use:  kDpPeakGflops %.1f  kDpHalfRows %.1f  kDpBatchOverheadMs %.2f\n",
              perfbench::kDpPeakGflops, perfbench::kDpHalfRows,
              perfbench::kDpBatchOverheadMs);
  std::printf("len\tbatch\trows\tmeasured_ms\tmodel_ms\n");
  for (const int len : {2, 16, 32, 64, 100}) {
    for (const int batch : {1, 2, 4, 8, 16}) {
      std::printf("%d\t%d\t%d\t%.2f\t%.2f\n", len, batch, len * batch,
                  forward_ms(*model, len, batch),
                  perfbench::classify_batch_cost_ms(len, batch));
    }
  }
  return 0;
}
