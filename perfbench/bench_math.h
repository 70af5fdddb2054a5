// The benchmark's own arithmetic, kept apart from the workloads so that
// selftest.cc can check it on hand-made inputs: percentile selection,
// pooling of samples into migration windows, self time of nested spans, and
// the snapshot-normal-form hash behind the correctness gate.

#ifndef GENMIG_PERFBENCH_BENCH_MATH_H_
#define GENMIG_PERFBENCH_BENCH_MATH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stream/element.h"

namespace perfbench {

/// Nearest-rank percentile of `values` (q in (0, 1]): the smallest sample
/// with at least q * n samples at or below it. 0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// Median, the highest of p90/p99/p99.9 that still has at least ten samples
/// above its rank, and the sample count.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// Label ("p90", "p99", "p99.9") of the highest supported percentile, or
  /// "none" when even p90 has fewer than ten samples beyond it.
  std::string tail_label = "none";
  double tail = 0.0;
};
LatencySummary Summarize(const std::vector<double>& values);

/// Number of samples strictly beyond the nearest-rank q-percentile of n.
size_t SamplesBeyond(size_t n, double q);

/// A closed-open wall-clock window [begin_ns, end_ns).
struct Window {
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
};

/// One latency observation: when the driver saw the result, and how late.
struct TimedSample {
  uint64_t seen_ns = 0;
  double value = 0.0;
};

/// Values of every sample seen inside any window. Overlapping or touching
/// windows are merged first, so no sample is counted twice.
std::vector<double> PoolInWindows(std::vector<Window> windows,
                                  const std::vector<TimedSample>& samples);

/// An in-memory span: name, start, end, and the index of the span that
/// caused it (-1 for a root).
struct Span {
  const char* name = "";  // A string literal.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;
};

/// Records spans in memory; nesting follows the Begin/End call order.
class SpanRecorder {
 public:
  int Begin(const char* name);
  void End(int id);
  /// Renames a span once its outcome is known (e.g. a call that did work).
  void Rename(int id, const char* name) {
    spans_[static_cast<size_t>(id)].name = name;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of each span: its duration minus the part of its interval that
/// its children cover (children are clipped to the parent and their union is
/// taken, so overlapping children are not subtracted twice).
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Self time summed per span name.
std::map<std::string, uint64_t> SelfTimeByName(const std::vector<Span>& spans);

/// 64-bit FNV-1a hash of a stream's snapshot normal form (ref/checker.h):
/// equal for snapshot-equivalent streams however their intervals are cut.
uint64_t NormalFormHash(const genmig::MaterializedStream& stream);

}  // namespace perfbench

#endif  // GENMIG_PERFBENCH_BENCH_MATH_H_
