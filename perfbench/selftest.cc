// Self-test of the benchmark's own arithmetic (bench_math.h). Exits 0 when
// every check holds; run it with `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_math.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void Near(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) < 1e-9,
         what + " = " + std::to_string(got) + ", want " + std::to_string(want));
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void TestPercentiles() {
  using perfbench::Percentile;
  Near(Percentile(OneTo(100), 0.5), 50, "p50 of 1..100");
  Near(Percentile(OneTo(100), 0.9), 90, "p90 of 1..100");
  Near(Percentile(OneTo(100), 0.99), 99, "p99 of 1..100");
  Near(Percentile(OneTo(1000), 0.99), 990, "p99 of 1..1000");
  Near(Percentile(OneTo(7), 1.0), 7, "p100 is the maximum");
  Near(Percentile({3.0}, 0.9), 3, "one sample");
  Near(Percentile({}, 0.5), 0, "no samples");

  Expect(perfbench::SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Expect(perfbench::SamplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  Expect(perfbench::SamplesBeyond(100, 0.9) == 10, "100 samples: 10 beyond p90");

  // The reported tail is the highest percentile with >= 10 samples beyond.
  perfbench::LatencySummary s = perfbench::Summarize(OneTo(1000));
  Expect(s.n == 1000 && s.tail_label == "p99", "1000 samples support p99, " + s.tail_label);
  Near(s.tail, 990, "p99 tail of 1..1000");
  s = perfbench::Summarize(OneTo(10000));
  Expect(s.tail_label == "p99.9", "10000 samples support p99.9, " + s.tail_label);
  s = perfbench::Summarize(OneTo(99));
  Expect(s.tail_label == "none", "99 samples support no tail, " + s.tail_label);
  s = perfbench::Summarize(OneTo(100));
  Expect(s.tail_label == "p90", "100 samples support p90, " + s.tail_label);
  Near(s.p50, 50, "summary p50");
}

void TestPooling() {
  using perfbench::TimedSample;
  using perfbench::Window;
  const std::vector<TimedSample> samples = {
      {5, 1.0}, {10, 2.0}, {15, 3.0}, {20, 4.0}, {25, 5.0}, {40, 6.0}, {55, 7.0}};
  // [10,20) and [15,26) overlap and merge into [10,26): samples at 10, 15,
  // 20, 25 once each; [40,41) holds 40; [50,55) excludes its end at 55.
  const std::vector<double> pooled = perfbench::PoolInWindows(
      {{40, 41}, {15, 26}, {10, 20}, {50, 55}, {60, 60}}, samples);
  Expect(pooled == std::vector<double>({2.0, 3.0, 4.0, 5.0, 6.0}),
         "pooled samples of overlapping windows");
  Expect(perfbench::PoolInWindows({}, samples).empty(), "no windows, no samples");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,100) with children a [10,40) and b [30,60) (overlapping, union
  // 50) and c [90,120) clipped to 10; a has a grandchild [20,25).
  const std::vector<Span> spans = {
      {"driver.run", 0, 100, -1}, {"a", 10, 40, 0}, {"b", 30, 60, 0},
      {"c", 90, 120, 0},          {"g", 20, 25, 1},
  };
  const std::vector<uint64_t> self = perfbench::SelfTimes(spans);
  Expect(self[0] == 40, "root self = 100 - 60 covered, got " + std::to_string(self[0]));
  Expect(self[1] == 25, "a self = 30 - 5, got " + std::to_string(self[1]));
  Expect(self[2] == 30 && self[3] == 30 && self[4] == 5, "leaf self times");
  const auto by_name = perfbench::SelfTimeByName(spans);
  Expect(by_name.at("a") == 25 && by_name.size() == 5, "self time by name");

  // The recorder nests by call order.
  perfbench::SpanRecorder rec;
  const int outer = rec.Begin("outer");
  const int inner = rec.Begin("inner");
  rec.End(inner);
  const int sibling = rec.Begin("sibling");
  rec.End(sibling);
  rec.End(outer);
  Expect(rec.spans()[1].parent == 0 && rec.spans()[2].parent == 0 &&
             rec.spans()[0].parent == -1,
         "recorder parents");
}

void TestNormalFormHash() {
  using genmig::MaterializedStream;
  using genmig::StreamElement;
  using genmig::TimeInterval;
  using genmig::Timestamp;
  using genmig::Tuple;
  auto el = [](int64_t x, int64_t s, int64_t e) {
    return StreamElement(Tuple::OfInts({x}), TimeInterval(Timestamp(s), Timestamp(e)));
  };
  const MaterializedStream whole = {el(1, 0, 10), el(2, 5, 8)};
  const MaterializedStream cut = {el(1, 0, 4), el(1, 4, 10), el(2, 5, 8)};
  const MaterializedStream shifted = {el(1, 0, 10), el(2, 5, 9)};
  const MaterializedStream other = {el(1, 0, 10), el(3, 5, 8)};
  const MaterializedStream doubled = {el(1, 0, 10), el(1, 0, 10), el(2, 5, 8)};
  const uint64_t h = perfbench::NormalFormHash(whole);
  Expect(h == perfbench::NormalFormHash(cut), "snapshot-equivalent cuts hash equal");
  Expect(h != perfbench::NormalFormHash(shifted), "a moved endpoint changes the hash");
  Expect(h != perfbench::NormalFormHash(other), "a changed value changes the hash");
  Expect(h != perfbench::NormalFormHash(doubled), "multiplicity changes the hash");
  Expect(h != perfbench::NormalFormHash({}), "empty stream hashes apart");
}

}  // namespace

int main() {
  TestPercentiles();
  TestPooling();
  TestSelfTime();
  TestNormalFormHash();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
