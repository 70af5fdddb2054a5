#include "bench_math.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/clock.h"
#include "ref/checker.h"

namespace perfbench {

namespace {

// 1-based nearest rank; the epsilon keeps q * n = 990.0000001 at 990.
size_t Rank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t k = Rank(values.size(), q) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - Rank(n, q);
}

LatencySummary Summarize(const std::vector<double>& values) {
  LatencySummary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  auto at = [&](double q) { return sorted[Rank(sorted.size(), q) - 1]; };
  s.p50 = at(0.5);
  s.p90 = at(0.9);
  s.p99 = at(0.99);
  const struct {
    const char* label;
    double q;
  } tails[] = {{"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}};
  for (const auto& t : tails) {
    if (SamplesBeyond(s.n, t.q) < 10) break;
    s.tail_label = t.label;
    s.tail = at(t.q);
  }
  return s;
}

std::vector<double> PoolInWindows(std::vector<Window> windows,
                                  const std::vector<TimedSample>& samples) {
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) {
              return a.begin_ns < b.begin_ns;
            });
  std::vector<Window> merged;
  for (const Window& w : windows) {
    if (w.end_ns <= w.begin_ns) continue;
    if (!merged.empty() && w.begin_ns <= merged.back().end_ns) {
      merged.back().end_ns = std::max(merged.back().end_ns, w.end_ns);
    } else {
      merged.push_back(w);
    }
  }
  std::vector<double> pooled;
  for (const TimedSample& s : samples) {
    auto it = std::upper_bound(merged.begin(), merged.end(), s.seen_ns,
                               [](uint64_t t, const Window& w) {
                                 return t < w.begin_ns;
                               });
    if (it == merged.begin()) continue;
    --it;
    if (s.seen_ns < it->end_ns) pooled.push_back(s.value);
  }
  return pooled;
}

int SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = genmig::obs::MonotonicNowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = genmig::obs::MonotonicNowNs();
  // Spans close innermost first; closing an outer span closes the rest.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %d}\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<Window>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const uint64_t b = std::max(s.start_ns, p.start_ns);
    const uint64_t e = std::min(s.end_ns, p.end_ns);
    if (e > b) covered[static_cast<size_t>(s.parent)].push_back({b, e});
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<Window>& kids = covered[i];
    std::sort(kids.begin(), kids.end(), [](const Window& a, const Window& b) {
      return a.begin_ns < b.begin_ns;
    });
    uint64_t union_ns = 0;
    uint64_t reach = 0;
    for (const Window& w : kids) {
      const uint64_t b = std::max(w.begin_ns, reach);
      if (w.end_ns > b) union_ns += w.end_ns - b;
      reach = std::max(reach, w.end_ns);
    }
    const uint64_t dur =
        spans[i].end_ns > spans[i].start_ns
            ? spans[i].end_ns - spans[i].start_ns
            : 0;
    self[i] = dur > union_ns ? dur - union_ns : 0;
  }
  return self;
}

std::map<std::string, uint64_t> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<uint64_t> self = SelfTimes(spans);
  std::map<std::string, uint64_t> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

namespace {

void Mix(uint64_t* h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

template <typename T>
void MixValue(uint64_t* h, T v) {
  Mix(h, &v, sizeof(v));
}

}  // namespace

uint64_t NormalFormHash(const genmig::MaterializedStream& stream) {
  uint64_t h = 14695981039346656037ull;
  const genmig::MaterializedStream nf = genmig::ref::SnapshotNormalForm(stream);
  MixValue(&h, static_cast<uint64_t>(nf.size()));
  for (const genmig::StreamElement& e : nf) {
    MixValue(&h, e.interval.start.t);
    MixValue(&h, e.interval.start.eps);
    MixValue(&h, e.interval.end.t);
    MixValue(&h, e.interval.end.eps);
    MixValue(&h, static_cast<uint64_t>(e.tuple.size()));
    for (size_t i = 0; i < e.tuple.size(); ++i) {
      const genmig::Value& v = e.tuple.field(i);
      MixValue(&h, static_cast<uint8_t>(v.type()));
      if (v.is_int64()) {
        MixValue(&h, v.AsInt64());
      } else if (v.is_double()) {
        MixValue(&h, v.AsDouble());
      } else {
        const std::string& s = v.AsString();
        MixValue(&h, static_cast<uint64_t>(s.size()));
        Mix(&h, s.data(), s.size());
      }
    }
  }
  return h;
}

}  // namespace perfbench
