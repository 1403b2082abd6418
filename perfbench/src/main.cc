// perfbench_serve — one workload per process.
//
//   perfbench_serve --workload <classify_varlen|chat_prefix|multitenant_decode>
//                   --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. An untraced run
// reports the end-to-end metrics; a traced run (--trace 1) reports the
// per-layer metrics, including the kernel probe. Exit code 0 whenever a
// result was printed; 2 on bad arguments.
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::Clock;

// Taken during static initialization, before main() runs: the set-up clock
// starts with the process.
const Clock::time_point g_process_start = Clock::now();

const std::map<std::string, std::string>& end_to_end_units() {
  static const std::map<std::string, std::string> units = {
      {"setup_s", "s"},
      {"requests_per_s", "req/s"},
      {"output_tokens_per_s", "tok/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"ttft_p50_ms", "ms"},
      {"ttft_p90_ms", "ms"},
      {"itl_p50_ms", "ms"},
      {"itl_p99_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return units;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_serve: %s\nusage: perfbench_serve --workload "
               "<classify_varlen|chat_prefix|multitenant_decode> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               msg);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

namespace perfbench {

const std::map<std::string, std::string>& per_layer_units() {
  static const std::map<std::string, std::string> units = {
      {"kernels.gemm_decode_us", "us"},
      {"kernels.gemm_encoder_us", "us"},
      {"kernels.softmax_us", "us"},
      {"kernels.layernorm_us", "us"},
      {"kernels.paged_attention_us", "us"},
      {"serving.schedule_us_p50", "us"},
      {"serving.padding_share", "share"},
      {"serving.batch_size_mean", "requests"},
      {"model.classify_us_per_slot", "us"},
      {"memory.encoder_peak_bytes", "bytes"},
      {"memory.encoder_malloc_count", "count"},
      {"memory.kv_peak_device_bytes", "bytes"},
      {"memory.kv_peak_waste_bytes", "bytes"},
      {"memory.budget_reclaims", "count"},
      {"memory.budget_reclaimed_bytes", "bytes"},
      {"genserve.steps", "count"},
      {"genserve.ttft_steps_p50", "steps"},
      {"genserve.step_ms_p50", "ms"},
      {"genserve.decode_step_ms_p50", "ms"},
      {"genserve.prefill_step_ms_p50", "ms"},
      {"genserve.rows_per_step_mean", "rows"},
      {"genserve.prefill_tokens", "count"},
      {"genserve.prefix_hit_share", "share"},
      {"genserve.radix_evictions", "count"},
      {"genserve.preemptions", "count"},
      {"genserve.replayed_rows", "count"},
      {"genserve.phase.admit_share", "share"},
      {"genserve.phase.prefill_share", "share"},
      {"genserve.phase.decode_share", "share"},
      {"genserve.phase.stream_share", "share"},
      {"router.denial_fallbacks", "count"},
      {"router.replica_token_spread", "ratio"},
      {"obs.trace_overhead_share", "share"},
      {"self.pass_ms", "ms"},
      {"self.serve_ms", "ms"},
      {"self.schedule_ms", "ms"},
      {"self.submit_ms", "ms"},
      {"self.step_ms", "ms"},
      {"self.callback_ms", "ms"},
  };
  return units;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start = g_process_start;
  options.out_dir = ".";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0 &&
                     options.seconds <= 600;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::RunResult result;
  try {
    if (options.workload == "classify_varlen") {
      result = perfbench::run_classify_varlen(options);
    } else if (options.workload == "chat_prefix") {
      result = perfbench::run_chat_prefix(options);
    } else if (options.workload == "multitenant_decode") {
      result = perfbench::run_multitenant_decode(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
    if (options.trace) perfbench::probe_kernels(result.values);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_serve: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  const auto& units =
      options.trace ? perfbench::per_layer_units() : end_to_end_units();
  std::string metrics;
  for (const auto& [name, unit] : units) {
    double value = 0.0;  // a per-layer metric the workload does not exercise
    const auto it = result.values.find(name);
    if (it != result.values.end()) {
      value = it->second;
    } else if (!options.trace) {
      result.errors.push_back("metric " + name + " was not measured");
    }
    if (!std::isfinite(value)) {
      result.errors.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + json_escape(name) + "\": {\"value\": " + buf +
               ", \"unit\": \"" + json_escape(unit) + "\"}";
  }
  for (const auto& [name, _] : result.values) {
    if (units.count(name) == 0 && name != "setup_s") {
      result.errors.push_back("metric " + name + " is not in the metric table");
    }
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench_serve: check failed: %s\n", e.c_str());
  }
  std::fprintf(stderr, "perfbench_serve: %s seed %llu, %d OpenMP threads\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               omp_get_max_threads());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              result.errors.empty() ? "true" : "false", result.attempted,
              result.failed, metrics.c_str());
  return 0;
}
