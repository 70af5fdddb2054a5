// perfbench: drives CQL text through the public Dsms API on one of three
// workloads and prints one JSON result line (the last line of stdout).
//
//   perfbench --workload <join-migrate|dedup-late-ckpt|sharded-join>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// --trace 0 measures the end-to-end metrics with no spans recorded;
// --trace 1 runs the same passes with spans around every call into a layer
// and reports the per-layer metrics. Every pass is checked against the
// plainest path (scalar, no migration, one shard, no checkpoint) on the same
// inputs, and the plainest path against the src/ref oracle on a prefix.
// See README.md for the definition of every metric.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.h"
#include "cql/parser.h"
#include "engine/dsms.h"
#include "obs/clock.h"
#include "opt/cost.h"
#include "opt/rules.h"
#include "plan/compile.h"
#include "plan/logical.h"
#include "ref/eval.h"
#include "stream/disorder.h"
#include "workloads.h"

namespace perfbench {
namespace {

using genmig::Dsms;
using genmig::LogicalPtr;
using genmig::MaterializedStream;
using genmig::Timestamp;

uint64_t Now() { return genmig::obs::MonotonicNowNs(); }
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Resident set size after returning free heap pages to the kernel, so that
// what one pass freed does not hide what the next one holds.
double TrimmedRssMb() {
  malloc_trim(0);
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

// --- Result line --------------------------------------------------------------

class Report {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  /// Starts the next checked unit: the correctness gate or one pass.
  void Attempt() {
    ++attempted_;
    unit_failed_ = false;
  }
  /// Records a failed check; the current unit counts as failed once.
  void Fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
    correct_ = false;
    if (!unit_failed_) ++failed_;
    unit_failed_ = true;
  }
  bool correct() const { return correct_; }
  void Print() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_) +
           ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.first, m.second);
      out += buf;
      first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::pair<double, const char*>> metrics_;
  bool correct_ = true;
  bool unit_failed_ = false;
  int attempted_ = 0;
  int failed_ = 0;
};

// Opens a span on a recorder that may be null (untraced run).
class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name) : -1) {}
  ~Scope() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

// --- Engine set-up and the correctness gate -----------------------------------

genmig::Schema KeySchema() { return genmig::Schema::OfInts({"x"}); }

struct Engine {
  std::unique_ptr<Dsms> dsms;
  Dsms::QueryId id = -1;
  double setup_s = 0.0;
};

// Set-up as a user pays it: construct the engine, register the streams,
// install the CQL query. `disorder_delta` >= 0 registers the streams as
// arrival-ordered with that fixed lateness bound.
Engine Setup(const Dsms::Options& options, const Streams& streams,
             const char* cql, int64_t disorder_delta, SpanRecorder* spans) {
  Engine e;
  const uint64_t t0 = Now();
  {
    Scope s(spans, "engine.register");
    e.dsms = std::make_unique<Dsms>(options);
    for (const auto& [name, data] : streams) {
      if (disorder_delta >= 0) {
        genmig::DisorderBuffer::Options d;
        d.delta = disorder_delta;
        e.dsms->RegisterDisorderedStream(name, KeySchema(), data, d);
      } else {
        e.dsms->RegisterStream(name, KeySchema(), data);
      }
    }
  }
  {
    Scope s(spans, "engine.install");
    genmig::Result<Dsms::QueryId> id = e.dsms->InstallQuery(cql);
    GENMIG_CHECK(id.ok());
    e.id = id.value();
  }
  e.setup_s = static_cast<double>(Now() - t0) / 1e9;
  return e;
}

LogicalPtr ParsePlan(const char* cql, const Streams& streams) {
  genmig::cql::Catalog catalog;
  for (const auto& entry : streams) catalog.Register(entry.first, KeySchema());
  genmig::Result<LogicalPtr> plan = genmig::cql::ParseQuery(cql, catalog);
  GENMIG_CHECK(plan.ok());
  return plan.value();
}

struct PlainRun {
  uint64_t hash = 0;
  double wall_s = 0.0;
  double rss_mb = 0.0;  // Held at the end, above the pre-set-up baseline.
  size_t results = 0;
};

// The plainest path: scalar, ordered input, no migration, one shard, no
// checkpoint. Every measured pass must match its snapshot normal form.
PlainRun RunPlain(const Streams& ordered, const char* cql) {
  const double rss0 = TrimmedRssMb();
  Engine e = Setup(Dsms::Options{}, ordered, cql, -1, nullptr);
  const uint64_t t0 = Now();
  e.dsms->RunToCompletion();
  PlainRun p;
  p.wall_s = static_cast<double>(Now() - t0) / 1e9;
  p.rss_mb = TrimmedRssMb() - rss0;
  p.results = e.dsms->Results(e.id).size();
  p.hash = NormalFormHash(e.dsms->Results(e.id));
  return p;
}

// The plainest path against the quadratic src/ref oracle on a prefix.
void OracleGate(const Streams& ordered, int64_t prefix_end, const char* cql,
                Report* report) {
  const uint64_t t0 = Now();
  const Streams prefix = Prefix(ordered, prefix_end);
  const PlainRun plain = RunPlain(prefix, cql);
  const MaterializedStream oracle =
      genmig::ref::EvalPlanToStream(*ParsePlan(cql, prefix), prefix);
  std::fprintf(stderr,
               "perfbench: oracle gate on %zu elements, %zu results: %.2f s\n",
               ElementCount(prefix), plain.results,
               static_cast<double>(Now() - t0) / 1e9);
  const std::string where =
      "the first " + std::to_string(prefix_end) + " time units";
  if (plain.results == 0) {
    report->Fail("no results on " + where + ", so the oracle checks nothing");
  } else if (NormalFormHash(oracle) != plain.hash) {
    report->Fail("plainest path differs from the src/ref oracle on " + where);
  }
}

void CheckHash(const Engine& e, uint64_t want, const char* what,
               SpanRecorder* spans, Report* report) {
  Scope s(spans, "ref.normal_form");
  if (NormalFormHash(e.dsms->Results(e.id)) != want) {
    report->Fail(std::string(what) +
                 ": snapshot normal form differs from the plainest path");
  }
}

// --- Replays ---------------------------------------------------------------------

// Per-layer observations gathered by a traced replay.
struct LayerObs {
  std::vector<double> slice_us;
  double mig_slice_ns = 0.0, mig_slices = 0.0;
  double other_slice_ns = 0.0, other_slices = 0.0;
  std::vector<double> reopt_idle_us;
  std::vector<double> reopt_start_us;
  std::vector<double> checkpoint_ms;
  size_t state_bytes_peak = 0;
};

struct ReplayHooks {
  bool reoptimize_each_second = false;
  /// Explicit Dsms::Checkpoint() every this many units (0 = none).
  int64_t checkpoint_every = 0;
};

// Calls that ride along with the replay at application-time boundaries:
// ReoptimizeNow once per application second, Checkpoint at its cadence.
void BoundaryCalls(Dsms& d, int64_t from, int64_t to, const ReplayHooks& hooks,
                   SpanRecorder* spans, LayerObs* obs, Report* report) {
  if (hooks.reoptimize_each_second && from / 1000 != to / 1000) {
    const int id = spans != nullptr ? spans->Begin("opt.reoptimize") : -1;
    const uint64_t t0 = Now();
    const int started = d.ReoptimizeNow();
    const double us = static_cast<double>(Now() - t0) / 1e3;
    (started > 0 ? obs->reopt_start_us : obs->reopt_idle_us).push_back(us);
    if (spans != nullptr) {
      spans->End(id);
      if (started > 0) spans->Rename(id, "migration.start");
    }
  }
  if (hooks.checkpoint_every > 0 &&
      from / hooks.checkpoint_every != to / hooks.checkpoint_every) {
    Scope s(spans, "ckpt.checkpoint");
    const uint64_t t0 = Now();
    const genmig::Status st = d.Checkpoint();
    obs->checkpoint_ms.push_back(Ms(Now() - t0));
    if (!st.ok()) report->Fail("Checkpoint(): " + st.ToString());
  }
}

// Saturated replay: application time advances in `slice`-unit steps as fast
// as the engine goes. Returns the wall time of the replay.
double ReplaySaturated(Engine& e, int64_t horizon, int64_t slice,
                       const ReplayHooks& hooks, SpanRecorder* spans,
                       LayerObs* obs, Report* report) {
  Dsms& d = *e.dsms;
  Scope replay(spans, "driver.saturated");
  const uint64_t t0 = Now();
  bool migrating = false;
  for (int64_t t = 0; t < horizon; t += slice) {
    const int64_t until = std::min(t + slice, horizon);
    if (spans == nullptr) {
      d.RunUntil(Timestamp(until));
    } else {
      const int id = spans->Begin("engine.slice");
      d.RunUntil(Timestamp(until));
      spans->End(id);
      const Span& s = spans->spans()[static_cast<size_t>(id)];
      const double ns = static_cast<double>(s.end_ns - s.start_ns);
      obs->slice_us.push_back(ns / 1e3);
      (migrating ? obs->mig_slice_ns : obs->other_slice_ns) += ns;
      (migrating ? obs->mig_slices : obs->other_slices) += 1.0;
      Scope info_scope(spans, "engine.info");
      const Dsms::QueryInfo info = d.Info(e.id);
      migrating = info.migration_in_progress;
      obs->state_bytes_peak = std::max(obs->state_bytes_peak, info.state_bytes);
    }
    BoundaryCalls(d, t, until, hooks, spans, obs, report);
  }
  {
    Scope s(spans, "engine.run_to_completion");
    d.RunToCompletion();
  }
  return static_cast<double>(Now() - t0) / 1e9;
}

struct PacedResult {
  std::vector<TimedSample> latency_ms;  // Per result: when seen, how late.
  std::vector<std::pair<int64_t, double>> lag_ms;  // (instant, lag).
  uint64_t begin_ns = 0, end_ns = 0, busy_ns = 0;
};

// Open-loop replay: application instant t is due at begin + t / pace. The
// engine may process what is due minus `hold` (the disorder lateness bound:
// instant t is final only once t + hold has arrived). A result is timed from
// the due time of its start timestamp to when the driver sees it in
// Results(). With `inputs_per_instant` set, each input is timed instead, from
// its due time to the return of the RunUntil call that consumed it: used
// where results may start later than their last input (DISTINCT re-emits a
// tuple when an earlier copy expires).
PacedResult ReplayPaced(Engine& e, int64_t horizon, double units_per_ms,
                        int64_t hold,
                        const std::vector<uint32_t>* inputs_per_instant,
                        const ReplayHooks& hooks, SpanRecorder* spans,
                        LayerObs* obs, Report* report) {
  Dsms& d = *e.dsms;
  Scope replay(spans, "driver.paced");
  const double ns_per_unit = 1e6 / units_per_ms;
  PacedResult r;
  auto due_ns = [&](int64_t t) {
    return static_cast<double>(r.begin_ns) + static_cast<double>(t) * ns_per_unit;
  };
  auto sample = [&](uint64_t now, int64_t t) {
    r.latency_ms.push_back({now, (static_cast<double>(now) - due_ns(t)) / 1e6});
  };
  size_t seen = 0;
  auto collect = [&](int64_t from, int64_t to) {
    Scope s(spans, "sink.read");
    const uint64_t now = Now();
    if (inputs_per_instant != nullptr) {
      for (int64_t t = from; t < to; ++t) {
        for (uint32_t i = 0; i < (*inputs_per_instant)[static_cast<size_t>(t)];
             ++i) {
          sample(now, t);
        }
      }
      return;
    }
    const MaterializedStream& out = d.Results(e.id);
    for (; seen < out.size(); ++seen) sample(now, out[seen].interval.start.t);
  };
  r.begin_ns = Now();
  int64_t next = 0;  // Every input starting before `next` has been offered.
  while (next < horizon) {
    const uint64_t wake =
        r.begin_ns + static_cast<uint64_t>(static_cast<double>(next + hold) *
                                           ns_per_unit);
    if (Now() < wake) {
      Scope idle(spans, "pace.wait");
      while (Now() < wake) {
      }
    }
    const uint64_t now = Now();
    const int64_t due =
        static_cast<int64_t>(static_cast<double>(now - r.begin_ns) /
                             ns_per_unit) -
        hold;
    const int64_t limit = std::min(std::max(due, next), horizon - 1);
    r.lag_ms.push_back({next, Ms(now - wake)});
    const uint64_t s0 = Now();
    {
      Scope s(spans, "engine.slice");
      d.RunUntil(Timestamp(limit + 1));
    }
    r.busy_ns += Now() - s0;
    BoundaryCalls(d, next, limit + 1, hooks, spans, obs, report);
    collect(next, limit + 1);
    next = limit + 1;
  }
  {
    Scope s(spans, "engine.run_to_completion");
    d.RunToCompletion();
  }
  collect(horizon, horizon);
  r.end_ns = Now();
  return r;
}

// The paced run is valid only if the generator kept up: the mean lag of the
// last quarter of the schedule may not exceed the first quarter's by 5 ms.
void CheckBacklog(const PacedResult& r, int64_t horizon, Report* report) {
  double sum[4] = {0, 0, 0, 0};
  double n[4] = {0, 0, 0, 0};
  for (const auto& [t, lag] : r.lag_ms) {
    const int q = static_cast<int>(std::min<int64_t>(3, t * 4 / horizon));
    sum[q] += lag;
    n[q] += 1;
  }
  const double first = n[0] > 0 ? sum[0] / n[0] : 0.0;
  const double last = n[3] > 0 ? sum[3] / n[3] : 0.0;
  std::fprintf(stderr, "perfbench: paced lag mean first/last quarter %.3f / %.3f ms\n",
               first, last);
  if (last > first + 5.0) {
    report->Fail("paced replay fell behind its schedule (backlog grew from " +
                 std::to_string(first) + " to " + std::to_string(last) +
                 " ms); the fixed rate was not sustainable");
  }
}

size_t MetricsLines(const Dsms& d) {
  const std::string text = d.MetricsText();
  return static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
}

void PutPacedLayers(const PacedResult& r, Report* report) {
  report->Set("engine.busy_frac",
              static_cast<double>(r.busy_ns) /
                  static_cast<double>(r.end_ns - r.begin_ns),
              "frac");
  std::vector<double> lag;
  for (const auto& entry : r.lag_ms) lag.push_back(entry.second);
  report->Set("driver.lag_p99_ms", Percentile(lag, 0.99), "ms");
}

// Output volume, state and metric-series counts at the end of a pass.
void PutOpsLayers(const Dsms& d, Dsms::QueryId id, size_t elements,
                  size_t state_bytes_peak, Report* report) {
  const size_t results = d.Info(id).result_count;
  report->Set("ops.results", static_cast<double>(results), "count");
  report->Set("ops.out_per_in",
              static_cast<double>(results) / static_cast<double>(elements),
              "ratio");
  report->Set("ops.state_bytes_peak", static_cast<double>(state_bytes_peak),
              "B");
  report->Set("obs.metrics_lines", static_cast<double>(MetricsLines(d)),
              "count");
  // Batching factor the executor achieved: rows per PushBatch, over every
  // operator that received batches.
  double rows = 0.0, batches = 0.0;
  for (const genmig::obs::OperatorMetrics* m : d.metrics().SnapshotSlots()) {
    if (m->batches_in.load() == 0) continue;
    rows += static_cast<double>(m->elements_in.load());
    batches += static_cast<double>(m->batches_in.load());
  }
  report->Set("ops.rows_per_batch", batches > 0 ? rows / batches : 0.0,
              "ratio");
}

std::vector<double> Values(const std::vector<TimedSample>& samples) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const TimedSample& s : samples) v.push_back(s.value);
  return v;
}

// Wall-clock windows of every migration, from the engine's phase tracer.
std::vector<Window> MigrationWindows(const Dsms& d, uint64_t end_ns) {
  std::map<int, Window> by_id;
  for (const genmig::obs::TraceRecord& rec : d.tracer().records()) {
    Window& w = by_id.try_emplace(rec.migration_id, Window{rec.wall_ns, end_ns})
                    .first->second;
    if (rec.event == genmig::obs::MigrationEvent::kRequested) {
      w.begin_ns = rec.wall_ns;
    }
    if (rec.event == genmig::obs::MigrationEvent::kCompleted) {
      w.end_ns = rec.wall_ns;
    }
  }
  std::vector<Window> out;
  for (const auto& entry : by_id) out.push_back(entry.second);
  return out;
}

void ReportLatency(const char* what, const std::vector<double>& ms) {
  const LatencySummary s = Summarize(ms);
  std::fprintf(stderr,
               "perfbench: %s latency n=%zu p50=%.4f p90=%.4f p99=%.4f ms "
               "(highest supported tail %s=%.4f ms)\n",
               what, s.n, s.p50, s.p90, s.p99, s.tail_label.c_str(), s.tail);
}

// Medians of the end-to-end figures over a run's passes.
struct EndToEnd {
  std::vector<double> throughput, setup, rss, p50, p90;
  void Put(Report* report) const {
    auto show = [](const char* name, const std::vector<double>& v) {
      std::string line;
      for (double x : v) line += " " + std::to_string(x);
      std::fprintf(stderr, "perfbench: passes %s:%s\n", name, line.c_str());
    };
    show("throughput_eps", throughput);
    show("setup_s", setup);
    show("rss_mb", rss);
    report->Set("throughput_eps", Median(throughput), "1/s");
    report->Set("setup_s", Median(setup), "s");
    report->Set("rss_mb", Median(rss), "MB");
    report->Set("result_p50_ms", Median(p50), "ms");
    report->Set("result_p90_ms", Median(p90), "ms");
  }
};

// Every per-layer metric, zero where the workload does not exercise the
// layer; each workload fills in what it measures.
std::map<std::string, std::pair<double, const char*>> LayerDefaults() {
  return {
      {"cql.parse_us", {0, "us"}},
      {"plan.compile_us", {0, "us"}},
      {"engine.install_ms", {0, "ms"}},
      {"engine.slice_us_p50", {0, "us"}},
      {"engine.slice_us_p99", {0, "us"}},
      {"engine.busy_frac", {0, "frac"}},
      {"opt.reoptimize_us", {0, "us"}},
      {"migration.start_us", {0, "us"}},
      {"migration.slice_ratio", {0, "ratio"}},
      {"migration.completed", {0, "count"}},
      {"migration.rss_kb_per_mig", {0, "KB"}},
      {"migration_p90_ms", {0, "ms"}},
      {"ops.results", {0, "count"}},
      {"ops.out_per_in", {0, "ratio"}},
      {"ops.state_bytes_peak", {0, "B"}},
      {"ops.rows_per_batch", {0, "ratio"}},
      {"stream.disorder_ns_per_el", {0, "ns"}},
      {"stream.max_lateness", {0, "units"}},
      {"stream.dropped", {0, "count"}},
      {"dropped_frac", {0, "frac"}},
      {"ckpt.checkpoint_ms_p50", {0, "ms"}},
      {"ckpt.checkpoint_ms_p99", {0, "ms"}},
      {"ckpt.commits", {0, "count"}},
      {"ckpt.written_frac", {0, "frac"}},
      {"restore_s", {0, "s"}},
      {"par.run_ms", {0, "ms"}},
      {"par.shard_skew", {0, "ratio"}},
      {"par.backpressure_ms", {0, "ms"}},
      {"par.speedup_vs_1", {0, "ratio"}},
      {"obs.metrics_lines", {0, "count"}},
      {"driver.lag_p99_ms", {0, "ms"}},
      {"driver.unattributed_frac", {0, "frac"}},
  };
}

// Set-up layers timed in isolation: the parser and the plan compiler.
void MeasureSetupLayers(const char* cql, const Streams& streams,
                        SpanRecorder* spans, Report* report) {
  Scope all(spans, "driver.setup_layers");
  std::vector<double> parse_us, compile_us;
  LogicalPtr plan;
  for (int i = 0; i < 200; ++i) {
    genmig::cql::Catalog catalog;
    for (const auto& entry : streams) catalog.Register(entry.first, KeySchema());
    const uint64_t t0 = Now();
    Scope s(spans, "cql.parse");
    genmig::Result<LogicalPtr> parsed = genmig::cql::ParseQuery(cql, catalog);
    parse_us.push_back(static_cast<double>(Now() - t0) / 1e3);
    GENMIG_CHECK(parsed.ok());
    plan = parsed.value();
  }
  const LogicalPtr stripped = genmig::logical::StripWindows(plan);
  for (int i = 0; i < 200; ++i) {
    const uint64_t t0 = Now();
    Scope s(spans, "plan.compile");
    genmig::Box box = genmig::CompilePlan(*stripped);
    compile_us.push_back(static_cast<double>(Now() - t0) / 1e3);
  }
  report->Set("cql.parse_us", Median(parse_us), "us");
  report->Set("plan.compile_us", Median(compile_us), "us");
}

// Shares every traced run reports from its span record.
void PutSpanLayers(const SpanRecorder& spans, const LayerObs& obs,
                   Report* report) {
  std::vector<double> install_ms;
  for (const Span& s : spans.spans()) {
    if (std::string(s.name) == "engine.install") {
      install_ms.push_back(Ms(s.end_ns - s.start_ns));
    }
  }
  report->Set("engine.install_ms", Median(install_ms), "ms");
  if (!obs.slice_us.empty()) {
    report->Set("engine.slice_us_p50", Percentile(obs.slice_us, 0.5), "us");
    report->Set("engine.slice_us_p99", Percentile(obs.slice_us, 0.99), "us");
  }
  if (!obs.reopt_idle_us.empty()) {
    report->Set("opt.reoptimize_us", Median(obs.reopt_idle_us), "us");
  }
  if (!obs.reopt_start_us.empty()) {
    report->Set("migration.start_us", Median(obs.reopt_start_us), "us");
  }
  if (obs.mig_slices > 0 && obs.other_slices > 0 && obs.other_slice_ns > 0) {
    report->Set("migration.slice_ratio",
                (obs.mig_slice_ns / obs.mig_slices) /
                    (obs.other_slice_ns / obs.other_slices),
                "ratio");
  }
  if (!obs.checkpoint_ms.empty()) {
    report->Set("ckpt.checkpoint_ms_p50", Percentile(obs.checkpoint_ms, 0.5),
                "ms");
    report->Set("ckpt.checkpoint_ms_p99", Percentile(obs.checkpoint_ms, 0.99),
                "ms");
  }
  // Time no layer call covers: the driver's own structural spans.
  const std::vector<uint64_t> self = SelfTimes(spans.spans());
  uint64_t driver_ns = 0;
  for (size_t i = 0; i < self.size(); ++i) {
    if (std::string(spans.spans()[i].name).rfind("driver.", 0) == 0) {
      driver_ns += self[i];
    }
  }
  const Span& root = spans.spans().front();
  report->Set("driver.unattributed_frac",
              static_cast<double>(driver_ns) /
                  static_cast<double>(root.end_ns - root.start_ns),
              "frac");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

// Ends a traced run: times the set-up layers, closes the root span, reports
// the span-derived metrics and writes the spans out.
void FinishTrace(SpanRecorder& recorder, int root, const char* cql,
                 const Streams& streams, const LayerObs& obs, const Args& args,
                 Report* report) {
  MeasureSetupLayers(cql, streams, &recorder, report);
  recorder.End(root);
  PutSpanLayers(recorder, obs, report);
  for (const auto& [name, ns] : SelfTimeByName(recorder.spans())) {
    std::fprintf(stderr, "perfbench: self time %-28s %10.3f ms\n", name.c_str(),
                 Ms(ns));
  }
  const std::string path =
      args.work_dir + "/spans-" + args.workload + ".jsonl";
  if (!recorder.WriteJsonLines(path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

bool Budget(uint64_t begin_ns, const Args& args, int passes) {
  return passes < 3 ||
         static_cast<double>(Now() - begin_ns) / 1e9 < args.seconds;
}

// --- join-migrate ------------------------------------------------------------------

// GenMig runs once per phase: the installed left-deep order is already stale
// in the first phase, then once after each of the 11 rate flips.
constexpr int kJoinExpectedMigrations = 12;
// The src/ref oracle's cost grows steeply with the prefix: 1200 units check
// in under two seconds and still yield results for every seed tried.
constexpr int64_t kJoinOraclePrefix = 1200;
// Paced replay at 20x application time: 1,100 el/s of application time
// become ~22k el/s of wall time, about a fifth of saturated throughput.
constexpr double kJoinPaceUnitsPerMs = 20.0;

void CheckMigrations(const Engine& e, int want, const char* what,
                     Report* report) {
  const int got = e.dsms->Info(e.id).migrations_completed;
  if (got != want) {
    report->Fail(std::string(what) + ": " + std::to_string(got) +
                 " migrations completed, expected " + std::to_string(want));
  }
}

void RunJoinMigrate(const Args& args, Report* report) {
  const Streams streams = MakeJoinStreams(args.seed);
  const size_t elements = ElementCount(streams);
  report->Attempt();
  OracleGate(streams, kJoinOraclePrefix, kJoinCql, report);
  const PlainRun plain = RunPlain(streams, kJoinCql);
  ReplayHooks hooks;
  hooks.reoptimize_each_second = true;
  if (args.trace) {
    // Memory held beyond the migration-free plainest path, per migration,
    // from an untraced pass so that the span record does not count.
    const double rss0 = TrimmedRssMb();
    Engine e = Setup(Dsms::Options{}, streams, kJoinCql, -1, nullptr);
    LayerObs unused;
    ReplaySaturated(e, kJoinHorizon, 1, hooks, nullptr, &unused, report);
    report->Set("migration.rss_kb_per_mig",
                (TrimmedRssMb() - rss0 - plain.rss_mb) * 1e3 /
                    kJoinExpectedMigrations,
                "KB");
  }

  SpanRecorder recorder;
  SpanRecorder* spans = args.trace ? &recorder : nullptr;
  const int root = spans != nullptr ? spans->Begin("driver.run") : -1;
  LayerObs obs;
  EndToEnd e2e;
  const uint64_t begin = Now();

  // Paced pass: result latency, migration windows, generator lag.
  report->Attempt();
  {
    Engine e = Setup(Dsms::Options{}, streams, kJoinCql, -1, spans);
    e2e.setup.push_back(e.setup_s);
    const PacedResult r = ReplayPaced(e, kJoinHorizon, kJoinPaceUnitsPerMs, 0,
                                      nullptr, hooks, spans, &obs, report);
    CheckHash(e, plain.hash, "paced join-migrate", spans, report);
    CheckMigrations(e, kJoinExpectedMigrations, "paced join-migrate", report);
    CheckBacklog(r, kJoinHorizon, report);
    const std::vector<double> all = Values(r.latency_ms);
    const std::vector<double> mig =
        PoolInWindows(MigrationWindows(*e.dsms, r.end_ns), r.latency_ms);
    ReportLatency("result", all);
    ReportLatency("in-migration", mig);
    e2e.p50.push_back(Percentile(all, 0.5));
    e2e.p90.push_back(Percentile(all, 0.9));
    if (args.trace) {
      report->Set("migration_p90_ms", Percentile(mig, 0.9), "ms");
      PutPacedLayers(r, report);
    }
  }

  // Saturated passes: throughput, set-up and memory.
  for (int pass = 0; Budget(begin, args, pass) && (!args.trace || pass < 1);
       ++pass) {
    report->Attempt();
    const double rss0 = TrimmedRssMb();
    Engine e = Setup(Dsms::Options{}, streams, kJoinCql, -1, spans);
    e2e.setup.push_back(e.setup_s);
    const double wall =
        ReplaySaturated(e, kJoinHorizon, 1, hooks, spans, &obs, report);
    e2e.rss.push_back(TrimmedRssMb() - rss0);
    e2e.throughput.push_back(static_cast<double>(elements) / wall);
    CheckHash(e, plain.hash, "saturated join-migrate", spans, report);
    CheckMigrations(e, kJoinExpectedMigrations, "saturated join-migrate",
                    report);
    if (args.trace) {
      report->Set("migration.completed",
                  e.dsms->Info(e.id).migrations_completed, "count");
      PutOpsLayers(*e.dsms, e.id, elements, obs.state_bytes_peak, report);
    }
  }

  if (!args.trace) {
    e2e.Put(report);
    return;
  }
  FinishTrace(recorder, root, kJoinCql, streams, obs, args, report);
}

// --- dedup-late-ckpt ---------------------------------------------------------------

constexpr int64_t kDedupOraclePrefix = 300;
// Saturated slices of 32 units carry ~64 elements, one executor batch.
constexpr int64_t kDedupSlice = 32;
constexpr int64_t kDedupCheckpointPeriod = 5000;  // Background commits.
constexpr int64_t kDedupCheckpointEvery = 5000;  // Explicit Checkpoint().
// Paced at 2x application time (~4k el/s, about an eighth of saturated
// capacity) over the first 6 s of application time.
constexpr double kDedupPaceUnitsPerMs = 2.0;
constexpr int64_t kDedupPacedHorizon = 6000;

Dsms::Options DedupOptions(const std::string& dir) {
  Dsms::Options options;
  options.executor.batch_size = 64;
  options.fuse_stateless = true;
  options.checkpoint_dir = dir;
  options.checkpoint_period = kDedupCheckpointPeriod;
  return options;
}

// Standalone DisorderBuffer fed the workload's arrivals through its public
// API: nanoseconds per element.
double DisorderNsPerElement(const Streams& arrivals, SpanRecorder* spans) {
  Scope s(spans, "stream.disorder");
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    size_t n = 0;
    const uint64_t t0 = Now();
    for (const auto& entry : arrivals) {
      genmig::DisorderBuffer::Options o;
      o.delta = kDedupDelay;
      genmig::DisorderBuffer buffer(o);
      MaterializedStream out;
      out.reserve(entry.second.size());
      for (const genmig::StreamElement& el : entry.second) buffer.Admit(el, &out);
      buffer.FlushAll(&out);
      n += out.size();
    }
    ns.push_back(static_cast<double>(Now() - t0) / static_cast<double>(n));
  }
  return Median(ns);
}

void RunDedupLateCkpt(const Args& args, Report* report) {
  const DedupInputs in = MakeDedupInputs(args.seed);
  const size_t elements = ElementCount(in.ordered);
  report->Attempt();
  OracleGate(in.ordered, kDedupOraclePrefix, kDedupCql, report);
  const PlainRun plain = RunPlain(in.ordered, kDedupCql);
  const Streams paced_arrivals = Prefix(in.arrivals, kDedupPacedHorizon);
  std::vector<uint32_t> per_instant(kDedupPacedHorizon, 0);
  for (const auto& entry : paced_arrivals) {
    for (const genmig::StreamElement& el : entry.second) {
      ++per_instant[static_cast<size_t>(el.interval.start.t)];
    }
  }
  const PlainRun paced_plain =
      RunPlain(Prefix(in.ordered, kDedupPacedHorizon), kDedupCql);
  ReplayHooks hooks;
  hooks.checkpoint_every = kDedupCheckpointEvery;
  const std::string ckpt_root =
      args.work_dir + "/ckpt-" + std::to_string(getpid());
  std::filesystem::remove_all(ckpt_root);

  SpanRecorder recorder;
  SpanRecorder* spans = args.trace ? &recorder : nullptr;
  const int root = spans != nullptr ? spans->Begin("driver.run") : -1;
  LayerObs obs;
  EndToEnd e2e;
  const uint64_t begin = Now();

  // Paced pass over a prefix: the engine may run up to the disorder
  // watermark of the arrival clock, so every input waits out the lateness
  // bound before its results can be final.
  report->Attempt();
  {
    Engine e = Setup(DedupOptions(ckpt_root + "/paced"), paced_arrivals,
                     kDedupCql, kDedupDelay, spans);
    e2e.setup.push_back(e.setup_s);
    const PacedResult r =
        ReplayPaced(e, kDedupPacedHorizon, kDedupPaceUnitsPerMs, kDedupDelay,
                    &per_instant, hooks, spans, &obs, report);
    CheckHash(e, paced_plain.hash, "paced dedup-late-ckpt", spans, report);
    CheckBacklog(r, kDedupPacedHorizon, report);
    const std::vector<double> all = Values(r.latency_ms);
    ReportLatency("result", all);
    e2e.p50.push_back(Percentile(all, 0.5));
    e2e.p90.push_back(Percentile(all, 0.9));
    if (args.trace) PutPacedLayers(r, report);
  }

  // Saturated passes: throughput, set-up and memory.
  for (int pass = 0; Budget(begin, args, pass) && (!args.trace || pass < 1);
       ++pass) {
    report->Attempt();
    const std::string dir = ckpt_root + "/pass" + std::to_string(pass);
    const double rss0 = TrimmedRssMb();
    Engine e =
        Setup(DedupOptions(dir), in.arrivals, kDedupCql, kDedupDelay, spans);
    e2e.setup.push_back(e.setup_s);
    const double wall =
        ReplaySaturated(e, kDedupHorizon, kDedupSlice, hooks, spans, &obs, report);
    e2e.rss.push_back(TrimmedRssMb() - rss0);
    e2e.throughput.push_back(static_cast<double>(elements) / wall);
    CheckHash(e, plain.hash, "saturated dedup-late-ckpt", spans, report);
    uint64_t dropped = 0, arrived = 0;
    int64_t max_lateness = 0;
    for (const auto& entry : in.arrivals) {
      const Dsms::DisorderInfo info = e.dsms->DisorderStats(entry.first);
      dropped += info.stats.dropped_late;
      arrived += info.stats.arrived;
      max_lateness = std::max(max_lateness, info.stats.max_lateness);
    }
    if (dropped != 0) {
      report->Fail("lossless disorder bound dropped " +
                   std::to_string(dropped) + " elements");
    }
    if (!args.trace) continue;
    const genmig::Status final_cut = e.dsms->Checkpoint();
    if (!final_cut.ok()) report->Fail("final Checkpoint(): " + final_cut.ToString());
    const genmig::ckpt::Store::StatsSnapshot ck = e.dsms->CheckpointStats();
    report->Set("ckpt.commits", static_cast<double>(ck.commits), "count");
    report->Set("ckpt.written_frac",
                ck.bytes > 0 ? static_cast<double>(ck.written_bytes) /
                                   static_cast<double>(ck.bytes)
                             : 0.0,
                "frac");
    report->Set("stream.max_lateness", static_cast<double>(max_lateness),
                "units");
    report->Set("stream.dropped", static_cast<double>(dropped), "count");
    report->Set("dropped_frac",
                arrived > 0 ? static_cast<double>(dropped) /
                                  static_cast<double>(arrived)
                            : 0.0,
                "frac");
    PutOpsLayers(*e.dsms, e.id, elements, obs.state_bytes_peak, report);
    e.dsms.reset();
    // Recovery: a fresh engine restores the run's last checkpoint.
    std::vector<double> restore_s;
    for (int rep = 0; rep < 5; ++rep) {
      Engine fresh =
          Setup(DedupOptions(dir), in.arrivals, kDedupCql, kDedupDelay, nullptr);
      Scope s(spans, "ckpt.restore");
      const uint64_t t0 = Now();
      const genmig::Status st = fresh.dsms->Restore();
      restore_s.push_back(static_cast<double>(Now() - t0) / 1e9);
      if (!st.ok()) report->Fail("Restore(): " + st.ToString());
    }
    report->Set("restore_s", Median(restore_s), "s");
  }
  std::filesystem::remove_all(ckpt_root);
  if (!args.trace) {
    e2e.Put(report);
    return;
  }
  report->Set("stream.disorder_ns_per_el",
              DisorderNsPerElement(in.arrivals, spans), "ns");
  FinishTrace(recorder, root, kDedupCql, in.ordered, obs, args, report);
}

// --- sharded-join --------------------------------------------------------------------

constexpr int kShards = 2;
// The router hands rows to the shard queues in batches of 64. One
// lock-and-notify per row made throughput swing with host CPU steal, because
// every row paid a cross-thread wake-up.
constexpr size_t kShardedBatch = 64;
constexpr int64_t kShardedMigrateAt = kJoinHorizon / 2;

// The cheapest rewrite of the running plan for the rates of the phase the
// migration lands in, as rules::EnumerateRewrites proposes it.
LogicalPtr ShardedTarget(const LogicalPtr& running) {
  genmig::StatsCatalog catalog;
  const bool ab_fast = JoinAbFast(kShardedMigrateAt);
  for (const char* name : {"A", "B", "C", "D"}) {
    const bool fast = (name[0] <= 'B') == ab_fast;
    catalog.SetSource(name, 1.0 / (fast ? kJoinFastPeriod : kJoinSlowPeriod),
                      static_cast<double>(kJoinKeys));
  }
  LogicalPtr best;
  double best_cost = 0.0;
  for (const LogicalPtr& c : genmig::rules::EnumerateRewrites(running, catalog)) {
    if (c == running) continue;
    const double cost = genmig::EstimateCost(*c, catalog);
    if (best == nullptr || cost < best_cost) {
      best = c;
      best_cost = cost;
    }
  }
  GENMIG_CHECK(best != nullptr);
  return best;
}

// Input elements each shard received, from the shard window slots
// ("s<k>/w<i>_<stream>") of the metrics registry.
std::vector<double> ShardInputs(const Dsms& d) {
  std::vector<double> per_shard(kShards, 0.0);
  for (const genmig::obs::OperatorMetrics* m : d.metrics().SnapshotSlots()) {
    for (int k = 0; k < kShards; ++k) {
      if (m->name.rfind("s" + std::to_string(k) + "/w", 0) == 0) {
        per_shard[static_cast<size_t>(k)] += static_cast<double>(m->elements_in.load());
      }
    }
  }
  return per_shard;
}

double BackpressureMs(const Dsms& d) {
  uint64_t ns = 0;
  for (const genmig::obs::OperatorMetrics* m : d.metrics().SnapshotSlots()) {
    if (m->name == "par/merge" ||
        (m->name.size() > 4 && m->name.compare(m->name.size() - 4, 4, "/lag") == 0)) {
      ns += m->backpressure_ns.load();
    }
  }
  return Ms(ns);
}

void RunShardedJoin(const Args& args, Report* report) {
  const Streams streams = MakeJoinStreams(args.seed);
  const size_t elements = ElementCount(streams);
  report->Attempt();
  OracleGate(streams, kJoinOraclePrefix, kJoinCql, report);
  const PlainRun plain = RunPlain(streams, kJoinCql);

  SpanRecorder recorder;
  SpanRecorder* spans = args.trace ? &recorder : nullptr;
  const int root = spans != nullptr ? spans->Begin("driver.run") : -1;
  LayerObs obs;
  EndToEnd e2e;
  Dsms::Options options;
  options.shards = kShards;
  options.executor.batch_size = kShardedBatch;
  const uint64_t begin = Now();
  for (int pass = 0; Budget(begin, args, pass) && (!args.trace || pass < 1);
       ++pass) {
    report->Attempt();
    const double rss0 = TrimmedRssMb();
    Engine e = Setup(options, streams, kJoinCql, -1, spans);
    {
      Scope s(spans, "engine.schedule_migration");
      const genmig::Status st = e.dsms->ScheduleMigration(
          e.id, ShardedTarget(e.dsms->Info(e.id).plan),
          Timestamp(kShardedMigrateAt));
      if (!st.ok()) report->Fail("ScheduleMigration(): " + st.ToString());
    }
    e2e.setup.push_back(e.setup_s);
    const uint64_t t0 = Now();
    {
      Scope s(spans, "par.run_to_completion");
      e.dsms->RunToCompletion();
    }
    const uint64_t wall_ns = Now() - t0;
    e2e.rss.push_back(TrimmedRssMb() - rss0);
    e2e.throughput.push_back(static_cast<double>(elements) * 1e9 /
                             static_cast<double>(wall_ns));
    // Results surface only when RunToCompletion returns, and every input was
    // due when it started: each result's latency is the completion time.
    e2e.p50.push_back(Ms(wall_ns));
    e2e.p90.push_back(Ms(wall_ns));
    CheckHash(e, plain.hash, "sharded-join", spans, report);
    CheckMigrations(e, 1, "sharded-join", report);
    if (!args.trace) continue;
    report->Set("par.run_ms", Ms(wall_ns), "ms");
    const std::vector<double> inputs = ShardInputs(*e.dsms);
    const double mean = (inputs[0] + inputs[1]) / kShards;
    report->Set("par.shard_skew",
                mean > 0 ? *std::max_element(inputs.begin(), inputs.end()) / mean
                         : 0.0,
                "ratio");
    report->Set("par.backpressure_ms", BackpressureMs(*e.dsms), "ms");
    report->Set("par.speedup_vs_1",
                plain.wall_s * 1e9 / static_cast<double>(wall_ns), "ratio");
    report->Set("migration.completed",
                e.dsms->Info(e.id).migrations_completed, "count");
    // Info() reports no state for sharded queries; the registry keeps each
    // operator's sampled peak.
    size_t state_peak = 0;
    for (const genmig::obs::OperatorMetrics* m :
         e.dsms->metrics().SnapshotSlots()) {
      state_peak += m->peak_state_bytes.load();
    }
    PutOpsLayers(*e.dsms, e.id, elements, state_peak, report);
  }
  if (!args.trace) {
    e2e.Put(report);
    return;
  }
  FinishTrace(recorder, root, kJoinCql, streams, obs, args, report);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--work-dir") {
      args.work_dir = val;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  Report report;
  if (args.trace) {
    for (const auto& [name, m] : LayerDefaults()) {
      report.Set(name, m.first, m.second);
    }
  }
  if (args.workload == "join-migrate") {
    RunJoinMigrate(args, &report);
  } else if (args.workload == "dedup-late-ckpt") {
    RunDedupLateCkpt(args, &report);
  } else if (args.workload == "sharded-join") {
    RunShardedJoin(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
