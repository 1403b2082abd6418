// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// layer of the library (Server::serve, the scheduler behind the
// BatchScheduler interface, GenerationServer / MultiModelGenerationServer
// submit and step, the token callback). They nest strictly — the benchmark
// drives everything from one thread — so a span's self time is its
// duration minus the durations of its direct children. Nothing is written
// until the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* layer = "";  // static string: "serve", "step", ...
    int parent = -1;         // index of the enclosing span, -1 = root
    int64_t request = -1;    // request id the span belongs to, -1 = none
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span nested in the innermost open one; returns its index, or
  // -1 when recording is off.
  int begin(const char* layer, int64_t request = -1);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }
  void clear();

  // Summed self time per layer name, in milliseconds.
  std::map<std::string, double> self_ms() const;

  // Tab-separated dump: index, parent, layer, request, start_us, end_us
  // (microseconds from the first span). Returns false when the file could
  // not be written.
  bool write_tsv(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when the recorder is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* layer, int64_t request = -1)
      : rec_(rec), index_(rec.begin(layer, request)) {}
  ~ScopedSpan() { rec_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace perfbench
