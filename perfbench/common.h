// Shared plumbing of the repository benchmark binary (ytbench): clocks and
// exact-sample percentiles, the in-memory span recorder behind the traced
// run, the fixtures the workloads share, read-back query generation and the
// repository dump every correctness check compares.
#ifndef YTBENCH_COMMON_H_
#define YTBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ccontrol/scheduler.h"
#include "obs/metrics.h"
#include "query/query_engine.h"
#include "relational/database.h"
#include "tgd/tgd.h"
#include "util/rng.h"

namespace ytbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// The fixed seed every repository fixture (schema, mappings, initial data)
// is generated from. The --seed argument only drives the op streams, so
// changing it keeps the fixture's component structure.
inline constexpr uint64_t kFixtureSeed = 1;

// Derives an independent stream seed from the run seed and a salt.
inline uint64_t StreamSeed(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

// Exact-sample statistics (no histogram buckets). A set keeps at most
// kMaxKept values; past that it keeps a uniform random subset of all values
// added (reservoir sampling, fixed seed). So the benchmark's own memory
// stops growing early in every run: kept whole, interactive-mixed's
// per-call samples grew with the calls a run got through and made
// peak_rss_mb follow host speed.
class Samples {
 public:
  static constexpr size_t kMaxKept = 100000;

  void Add(double v);
  // Values added, kept or not.
  size_t size() const { return added_; }
  // Nearest-rank quantile of the kept values, q in (0, 1]; 0 when empty.
  double Quantile(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  size_t added_ = 0;
  youtopia::Rng rng_{0x5eed};
};

// Peak resident set size of this process in MB (getrusage).
double PeakRssMb();

// ---------------------------------------------------------------------------
// Host-speed reference. The benchmark shares its host, whose speed drifts by
// a fifth or more over seconds to minutes while the process keeps running
// (no steal time shows), and that drift moved whole runs together. So every
// workload times a fixed reference kernel — benchmark code only, none of
// src/ — before each round (episode) and set-up, outside the measured time,
// and records every time taken until the next kernel run also at the
// nominal host speed: times kReferenceNominalMs / the kernel's time (a rate
// divided by it). The end-to-end metrics are the nominal values; the values
// as measured are printed in the provenance line.

// The nominal kernel time: about its median on the 4-vCPU host the
// benchmark was tuned on. It only fixes the scale of the nominal values.
inline constexpr double kReferenceNominalMs = 2.5;

// Runs the reference kernel (20,000 hash-map inserts and a sort of their
// keys, in a memory pool of its own: the hashing, node allocation and
// compare-heavy work the workloads do) and returns its wall time in ms.
double ReferenceKernelMs();

// Time samples kept twice: as measured, and at the nominal host speed.
struct TimeSamples {
  Samples measured;
  Samples nominal;
  // `scale` converts a value measured now to the nominal host speed.
  void Add(double v, double scale) {
    measured.Add(v);
    nominal.Add(v * scale);
  }
  size_t size() const { return measured.size(); }
};

// ---------------------------------------------------------------------------
// Span recorder. Only the benchmark's own thread records, around the calls it
// makes into each layer; spans stay in memory and are written once, as
// Chrome trace-event JSON, when the run ends. Disabled (the untraced run)
// it costs one branch per call site.

class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span; returns its index (-1
  // when disabled or full).
  int32_t Begin(const char* name, uint64_t op);
  void End(int32_t index);

  struct NameStats {
    uint64_t count = 0;
    double self_ns = 0;   // durations minus the time child spans cover
  };
  // Aggregates every closed span by name.
  std::map<std::string, NameStats> Aggregate() const;

  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int32_t parent;
    uint64_t op;
  };
  static constexpr size_t kMaxSpans = size_t{2} << 20;  // ~80 MB

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t dropped_ = 0;
};

using SpanTable = std::map<std::string, SpanRecorder::NameStats>;

// Mean self time in ns of the spans named `name` (0 when there are none).
double SpanMeanNs(const SpanTable& spans, const char* name);

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t op = 0)
      : index_(SpanRecorder::Get().enabled()
                   ? SpanRecorder::Get().Begin(name, op)
                   : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) SpanRecorder::Get().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_;
};

// ---------------------------------------------------------------------------
// Fixtures.

struct Fixture {
  youtopia::Database db;
  std::vector<youtopia::Value> constants;
  std::vector<youtopia::Tgd> tgds;
  size_t initial_visible = 0;
};

// 40 relations in 8 islands, 56 null-free mappings, 300 chase-seeded tuples
// under a MinContentAgent (the streaming_ingest fixture).
std::unique_ptr<Fixture> BuildIslandsFixture();

// The paper's scale (Section 6): 100 relations, 50 constants, 100 mappings
// with existentials forming one component, 10,000 chase-seeded tuples.
std::unique_ptr<Fixture> BuildDenseFixture();

// A conjunctive read query built from a mapping's left-hand side with one
// variable bound to a pool constant, in the parser's text format.
struct ReadQuery {
  std::string text;
  std::vector<std::string> head;
};

// Cycles through every query shape — one per (mapping, bound variable) pair
// of the fixture's left-hand sides — in a fixed order from a seeded start,
// so every run reads the same mix of shapes; the seed picks the start and
// the bound constants.
class QueryMix {
 public:
  QueryMix(const Fixture& fx, uint64_t seed);
  ReadQuery Next(const Fixture& fx);

 private:
  struct Shape {
    size_t tgd;
    youtopia::VarId bound;
    bool bind;  // false when the left-hand side has a single variable
  };
  youtopia::Rng rng_;
  std::vector<Shape> shapes_;
  size_t next_ = 0;
};

// Parses and evaluates `q` (certain answers) against the latest state,
// timing each layer call; returns the answer count (or -1 on a parse
// error), sets *latency_us to the whole call's latency and adds the
// evaluation's to `eval_us`.
long RunReadQuery(youtopia::Database* db, const ReadQuery& q,
                  double* latency_us, Samples* eval_us);

// Sorted rendering of every relation's visible tuples; equal strings mean
// literally equal instances. Counts scanned tuples into *tuples and adds
// the scan time to *scan_ns.
std::string DumpAll(const youtopia::Database& db, uint64_t* tuples,
                    double* scan_ns);

// Writes, without any chase, a tuple matching a one-atom left-hand side
// with fresh constants, so that mapping's right-hand side is unmatched:
// the corrupted state the self-tests feed the correctness checks.
void InsertViolatingTuple(youtopia::Database* db,
                          const std::vector<youtopia::Tgd>& tgds);

// ---------------------------------------------------------------------------
// What one run reports.

struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t committed = 0;
  double measured_s = 0;  // wall time of the measured loop
  // Committed updates per measured second of each complete round (episode);
  // committed_per_s is their median, robust to a burst of machine noise.
  TimeSamples round_rate;
  TimeSamples setup_s;
  TimeSamples batch_ms;
  TimeSamples update_us;
  TimeSamples query_us;
  Samples reference_ms;  // every ReferenceKernelMs() of the run
  // Nominal over measured speed at the latest Calibrate(): multiplies a
  // time taken since then (divides a rate) to the nominal host speed.
  double scale = 1.0;
  // Per-layer values (traced run only), by metric name.
  std::map<std::string, double> layer;
  // Provenance entries, each a rendered JSON value.
  std::vector<std::pair<std::string, std::string>> provenance;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Note(const std::string& key, const std::string& json_value) {
    provenance.emplace_back(key, json_value);
  }
  void Note(const std::string& key, double v);
  // Times the reference kernel and sets `scale` from it; called before
  // every round (episode) and set-up.
  void Calibrate();
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
};

// Per-layer values every workload derives the same way: the engine counters
// per committed update (`snap` holds the doom counters)...
void AddEngineLayers(const youtopia::SchedulerStats& t,
                     const youtopia::obs::MetricsSnapshot& snap,
                     RunResult* res);
// ...the read path (`answers` over `queries` read-back queries)...
void AddReadLayers(const SpanTable& spans, const Samples& eval_us,
                   double answers, size_t queries, RunResult* res);
// ...and storage size and scan cost.
void AddStorageLayers(uint64_t visible_end, uint64_t scan_tuples,
                      double scan_ns, RunResult* res);

RunResult RunIngestIslands(const RunOptions& opt);
RunResult RunSerialDense(const RunOptions& opt);
RunResult RunInteractiveMixed(const RunOptions& opt);

// Each feeds its workload's correctness checks an intact and a corrupted
// state; true iff every check accepts the first and rejects the second.
bool SelfTestIngestIslands();
bool SelfTestSerialDense();
bool SelfTestInteractiveMixed();

}  // namespace ytbench

#endif  // YTBENCH_COMMON_H_
