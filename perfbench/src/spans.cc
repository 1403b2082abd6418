#include "spans.h"

#include <cstdio>

namespace perfbench {

int SpanRecorder::begin(const char* layer, int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.start = Clock::now();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end = Clock::now();
  // Spans close innermost-first (ScopedSpan lifetimes nest).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanRecorder::clear() {
  spans_.clear();
  open_.clear();
}

std::map<std::string, double> SpanRecorder::self_ms() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = ms_between(spans_[i].start, spans_[i].end);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) self[static_cast<size_t>(p)] -= ms_between(spans_[i].start, spans_[i].end);
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].layer] += self[i];
  return out;
}

bool SpanRecorder::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# index\tparent\tlayer\trequest\tstart_us\tend_us\n");
  const Clock::time_point t0 =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%s\t%lld\t%.3f\t%.3f\n", i, s.parent, s.layer,
                 static_cast<long long>(s.request),
                 ms_between(t0, s.start) * 1e3, ms_between(t0, s.end) * 1e3);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
