// ingest-islands: pipelined ingest into a growing repository.
//
// One client thread drives an IngestPipeline closed-loop: it submits a batch
// of kBatchOps ops, waits on Flush() until they have propagated, then reads
// back one certain-answer query. Only Submit+Flush count as write time; the
// read-back lies outside it. Rounds of kRoundOps ops grow the 8-island
// fixture; each round starts from a freshly generated fixture with a fresh
// op stream, and the measured loop ends once `seconds` of batches ran.
// After every round the committed ops are replayed serially in priority
// order, step by step, on another fresh fixture: the final
// instances must be byte-identical (Theorem 4.4 with null-free mappings and
// content-ordered agents), and the replay doubles as the per-step and
// per-component attribution of the traced run.
#include <algorithm>
#include <numeric>
#include <cstdio>
#include <string>
#include <vector>

#include "ccontrol/parallel/ingest_pipeline.h"
#include "ccontrol/parallel/shard_map.h"
#include "common.h"
#include "core/agent.h"
#include "core/update.h"
#include "obs/metrics.h"
#include "workload/generators.h"

namespace ytbench {
namespace {

using namespace youtopia;

// One pipeline worker: with two or three, throughput of one op stream swung
// by up to 3x between runs on a 4-vCPU host, too much to gate on.
constexpr size_t kWorkers = 1;
// Ops per round: the largest size whose per-round cost still averages out
// over a run (at 20,000, the rates of five seeds spread by a third).
constexpr size_t kRoundOps = 5000;
// Ops per batch. A run has thousands of batches, far above the 1,000 an
// exact p99 needs; the size itself is a choice, not a measurement.
constexpr size_t kBatchOps = 16;
// Shares of the op stream that carry benchmark-allocated labeled nulls
// (inserts) and that replace one of those nulls by a pool constant.
constexpr double kNullInsertShare = 0.03;
constexpr double kNullReplaceShare = 0.01;
constexpr uint64_t kWatchdogMs = 20000;
// The design's three-worker layout, over which the replay's per-shard chase
// time is spread for parallel.shard_busy_imbalance (with kWorkers = 1 the
// pipeline's own map has a single shard).
constexpr size_t kReplayShards = 3;

struct OpStream {
  std::vector<WriteOp> ops;
  size_t null_inserts = 0;
  size_t shared_null_inserts = 0;
  size_t null_replaces = 0;
};

// Generates one round's ops: pinned inserts, a few carrying labeled nulls
// (half of them reusing a live null, which shares it across islands), and
// replacements of nulls first inserted in an earlier batch.
OpStream MakeOps(Fixture* fx, uint64_t seed) {
  Rng rng(seed);
  WorkloadOptions wl;
  wl.num_updates = kRoundOps;
  OpStream out;
  out.ops = GenerateWorkload(&fx->db, fx->constants, &rng, wl);
  struct LiveNull {
    Value null;
    size_t batch;
  };
  std::vector<LiveNull> live;
  for (size_t i = 0; i < out.ops.size(); ++i) {
    const size_t batch = i / kBatchOps;
    WriteOp& op = out.ops[i];
    const double u = rng.UniformDouble();
    if (u < kNullReplaceShare) {
      if (!live.empty() && live.front().batch < batch) {
        const Value c = fx->constants[rng.Uniform(fx->constants.size())];
        op = WriteOp::NullReplace(live.front().null, c);
        live.erase(live.begin());
        ++out.null_replaces;
      }
    } else if (u < kNullReplaceShare + kNullInsertShare) {
      Value null;
      if (!live.empty() && rng.Chance(0.5)) {
        null = live[rng.Uniform(live.size())].null;
        ++out.shared_null_inserts;
      } else {
        null = fx->db.FreshNull();
        live.push_back(LiveNull{null, batch});
      }
      op.data[rng.Uniform(op.data.size())] = null;
      ++out.null_inserts;
    }
  }
  return out;
}

IngestOptions PipelineOptions(obs::MetricsRegistry* metrics) {
  IngestOptions po;
  po.num_workers = kWorkers;
  po.tracker = TrackerKind::kCoarse;
  po.agent_factory = [](size_t) -> std::unique_ptr<FrontierAgent> {
    return std::make_unique<MinContentAgent>();
  };
  po.inbox_capacity = 256;
  po.metrics = metrics;
  po.watchdog_deadline_ms = kWatchdogMs;
  return po;
}

// Serial replay of `committed` on a fresh fixture, one timed Update::Step
// at a time, attributing step time to the op's component.
struct ReplayCost {
  uint64_t steps = 0;
  uint64_t rows_examined = 0;
  uint64_t capped = 0;
  Samples step_us;
  std::vector<double> component_ns;  // last slot: null replacements
};

// Re-interns `v` into `to` by text (the two fixtures' symbol tables differ
// by the op stream's fresh constants); nulls keep their identity.
Value Translate(const Value& v, const SymbolTable& from, Database* to) {
  return v.is_null() ? v : to->InternConstant(from.Text(v));
}

bool ReplayCommitted(Fixture* fx, const SymbolTable& source,
                     const std::vector<WriteOp>& committed,
                     const ShardMap& map, Clock::time_point deadline,
                     ReplayCost* cost) {
  cost->component_ns.resize(map.num_components() + 1, 0);
  MinContentAgent agent;
  uint64_t number = 1;
  for (const WriteOp& op : committed) {
    if (Clock::now() > deadline) return false;
    const size_t comp = op.kind == WriteOp::Kind::kNullReplace
                            ? map.num_components()
                            : map.ComponentOf(op.rel);
    WriteOp local = op;
    for (Value& v : local.data) v = Translate(v, source, &fx->db);
    if (local.kind == WriteOp::Kind::kNullReplace) {
      local.to = Translate(local.to, source, &fx->db);
    }
    Update u(number, std::move(local), &fx->tgds);
    while (!u.finished()) {
      const uint64_t t0 = NowNs();
      {
        ScopedSpan span("core.Update::Step", number);
        u.Step(&fx->db, &agent);
      }
      const double dt = static_cast<double>(NowNs() - t0);
      cost->step_us.Add(dt / 1e3);
      cost->component_ns[comp] += dt;
      ++cost->steps;
    }
    if (u.hit_step_cap()) ++cost->capped;
    cost->rows_examined += u.rows_examined();
    ++number;
  }
  return true;
}

}  // namespace

// Checks shared with the self-test: every submitted op committed, none
// failed, and the streamed instance equals the serial replay's.
bool IngestCountsOk(uint64_t submitted, uint64_t committed, uint64_t failed,
                    size_t committed_ops) {
  return failed == 0 && committed == submitted && committed_ops == submitted;
}

RunResult RunIngestIslands(const RunOptions& opt) {
  RunResult res;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(150);

  // Set-up: fixture generation plus pipeline start, repeated; the last
  // fixture is the one measured.
  std::unique_ptr<Fixture> fx;
  const int reps = opt.traced ? 1 : 15;  // one set-up takes about 10 ms
  res.Calibrate();
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fx = BuildIslandsFixture();
    obs::MetricsRegistry metrics;
    IngestPipeline pipeline(&fx->db, &fx->tgds, PipelineOptions(&metrics));
    res.setup_s.Add(SecondsSince(t0), res.scale);
  }
  const size_t visible_before = fx->db.CountVisible(kReadLatest);

  ParallelStats total;
  // One registry across rounds: stage histograms and counters accumulate.
  obs::MetricsRegistry metrics;
  ReplayCost replay;
  QueryMix queries(*fx, StreamSeed(opt.seed, 17));
  Samples eval_us;
  double answers = 0;
  uint64_t submitted = 0, submit_failed = 0, rounds = 0, batches = 0;
  uint64_t null_inserts = 0, shared_nulls = 0, null_replaces = 0;
  uint64_t scan_tuples = 0, visible_end = 0;
  double scan_ns = 0;

  while (res.measured_s < opt.seconds) {
    if (Clock::now() > deadline) {
      res.Fail("deadline exceeded before round " + std::to_string(rounds));
      break;
    }
    res.Calibrate();
    // Every round starts from a freshly generated fixture, so the pipeline
    // and the serial replay start from identical plan and index state.
    fx = BuildIslandsFixture();
    const OpStream stream = MakeOps(fx.get(), StreamSeed(opt.seed, rounds));
    null_inserts += stream.null_inserts;
    shared_nulls += stream.shared_null_inserts;
    null_replaces += stream.null_replaces;

    double round_write_s = 0;  // Submit+Flush time of the round's batches
    auto pipeline = std::make_unique<IngestPipeline>(
        &fx->db, &fx->tgds, PipelineOptions(&metrics));
    const ShardMap map = pipeline->shard_map();
    uint64_t round_submitted = 0, round_submit_failed = 0;
    for (size_t b = 0; b * kBatchOps < stream.ops.size(); ++b) {
      if (res.measured_s >= opt.seconds || Clock::now() > deadline) break;
      const Clock::time_point tb = Clock::now();
      const size_t end = std::min(stream.ops.size(), (b + 1) * kBatchOps);
      {
        ScopedSpan batch_span("bench.batch", batches);
        for (size_t i = b * kBatchOps; i < end; ++i) {
          SubmitResult r;
          {
            ScopedSpan span("parallel.Submit", i);
            r = pipeline->Submit(stream.ops[i]);
          }
          ++round_submitted;
          if (r != SubmitResult::kOk) ++round_submit_failed;
        }
        ScopedSpan span("parallel.Flush", b);
        pipeline->Flush();
      }
      const double batch_s = SecondsSince(tb);
      round_write_s += batch_s;
      res.batch_ms.Add(batch_s * 1e3, res.scale);
      // An op's share of its batch: a single Submit is an enqueue of a few
      // microseconds whose tail is host jitter, not ingest cost.
      res.update_us.Add(batch_s * 1e6 /
                            static_cast<double>(end - b * kBatchOps),
                        res.scale);
      // The peer reads back once its batch has propagated.
      double latency_us = 0;
      const long n = RunReadQuery(&fx->db, queries.Next(*fx), &latency_us,
                                  &eval_us);
      if (n < 0) {
        res.Fail("read-back query failed to parse");
      } else {
        res.query_us.Add(latency_us, res.scale);
      }
      answers += static_cast<double>(std::max(n, 0L));
      res.measured_s += SecondsSince(tb);
      ++batches;
    }
    const ParallelStats stats = pipeline->Flush();
    const std::vector<WriteOp> committed = pipeline->CommittedOpsInOrder();
    pipeline.reset();  // joins every pipeline thread
    total.Merge(stats);
    submitted += round_submitted;
    submit_failed += round_submit_failed;
    const std::string round = "round " + std::to_string(rounds++);
    if (round_submitted == kRoundOps || res.round_rate.size() == 0) {
      res.round_rate.Add(static_cast<double>(stats.totals.updates_completed) /
                             std::max(round_write_s, 1e-9),
                         1 / res.scale);
    }

    // Correctness: counts, then the byte-identical serial replay.
    if (round_submit_failed != 0 ||
        !IngestCountsOk(round_submitted, stats.totals.updates_completed,
                        stats.totals.updates_failed, committed.size())) {
      res.Fail(round + ": committed " +
               std::to_string(stats.totals.updates_completed) + " of " +
               std::to_string(round_submitted) + " submitted");
    }
    const std::string streamed = DumpAll(fx->db, &scan_tuples, &scan_ns);
    visible_end = fx->db.CountVisible(kReadLatest);
    std::unique_ptr<Fixture> streamed_fx = std::move(fx);
    fx = BuildIslandsFixture();
    const uint64_t capped_before = replay.capped;
    if (!ReplayCommitted(fx.get(), streamed_fx->db.symbols(), committed, map,
                         deadline, &replay)) {
      res.Fail(round + ": deadline exceeded during the serial replay");
      break;
    }
    if (replay.capped != capped_before) {
      res.Fail(round + ": the serial replay hit the step cap");
    }
    uint64_t replay_tuples = 0;
    double replay_scan_ns = 0;
    if (DumpAll(fx->db, &replay_tuples, &replay_scan_ns) != streamed) {
      res.Fail(round + ": serial replay differs from the streamed instance");
    }
  }
  const SchedulerStats& t = total.totals;
  res.attempted = submitted;
  res.failed = submit_failed + t.updates_failed;
  res.committed = t.updates_completed;

  res.Note("workers", static_cast<double>(total.workers));
  res.Note("components", static_cast<double>(total.components));
  res.Note("rounds", static_cast<double>(rounds));
  res.Note("round_ops", static_cast<double>(kRoundOps));
  res.Note("batch_ops", static_cast<double>(kBatchOps));
  res.Note("batches", static_cast<double>(batches));
  res.Note("null_inserts", static_cast<double>(null_inserts));
  res.Note("shared_null_inserts", static_cast<double>(shared_nulls));
  res.Note("null_replaces", static_cast<double>(null_replaces));
  res.Note("visible_before", static_cast<double>(visible_before));
  res.Note("visible_after_last_round", static_cast<double>(visible_end));

  if (opt.traced) {
    const auto spans = SpanRecorder::Get().Aggregate();
    const obs::MetricsSnapshot snap = metrics.Snapshot();
    AddEngineLayers(t, snap, &res);
    AddReadLayers(spans, eval_us, answers, res.query_us.size(), &res);
    AddStorageLayers(visible_end, scan_tuples, scan_ns, &res);
    auto mean_us = [&](obs::Stage s) {
      const obs::HistogramSnapshot& h = snap.stage(s);
      return h.total == 0 ? 0.0
                          : static_cast<double>(h.sum) /
                                static_cast<double>(h.total) / 1e3;
    };
    auto& L = res.layer;
    L["parallel.submit_mean_us"] = SpanMeanNs(spans, "parallel.Submit") / 1e3;
    L["parallel.flush_mean_ms"] = SpanMeanNs(spans, "parallel.Flush") / 1e6;
    L["parallel.producer_stall_s"] = total.admission_stall_seconds;
    L["parallel.inbox_wait_mean_us"] = mean_us(obs::Stage::kInboxWait);
    const double chase_s =
        static_cast<double>(snap.stage(obs::Stage::kChase).sum) / 1e9;
    L["parallel.chase_busy_s"] = chase_s;
    L["parallel.worker_utilisation"] =
        chase_s / (static_cast<double>(std::max<uint64_t>(total.workers, 1)) *
                   std::max(res.measured_s, 1e-9));
    L["parallel.cross_shard_ops"] =
        static_cast<double>(total.cross_shard_updates);
    L["parallel.escaped_ops"] = static_cast<double>(total.escaped_updates);
    L["parallel.cross_batches"] = static_cast<double>(total.cross_batches);
    L["parallel.cross_batch_mean_us"] = mean_us(obs::Stage::kCrossBatch);
    L["parallel.admission_mean_us"] = mean_us(obs::Stage::kAdmission);

    // Per-shard and per-component chase time, from the serial replay.
    const std::unique_ptr<Fixture> fresh = BuildIslandsFixture();
    const ShardMap map(fresh->db.num_relations(), fresh->tgds, kReplayShards,
                       &fresh->db);
    std::vector<double> shard_ns(map.num_shards(), 0);
    double comp_total = 0, comp_max = 0;
    for (size_t c = 0; c < replay.component_ns.size(); ++c) {
      comp_total += replay.component_ns[c];
      comp_max = std::max(comp_max, replay.component_ns[c]);
      if (c < map.num_components()) {
        shard_ns[map.ShardOfComponent(static_cast<uint32_t>(c))] +=
            replay.component_ns[c];
      }
    }
    const double shard_sum =
        std::accumulate(shard_ns.begin(), shard_ns.end(), 0.0);
    L["parallel.shard_busy_imbalance"] =
        shard_sum > 0
            ? *std::max_element(shard_ns.begin(), shard_ns.end()) /
                  (shard_sum / static_cast<double>(shard_ns.size()))
            : 0;
    L["core.top_component_share"] = comp_total > 0 ? comp_max / comp_total : 0;
    // Steps beyond what the serial replay of the committed ops needed:
    // escaped pinned attempts and aborted cross-shard attempts.
    L["ccontrol.wasted_step_share"] =
        t.total_steps > 0
            ? std::max(0.0, 1.0 - static_cast<double>(replay.steps) /
                                      static_cast<double>(t.total_steps))
            : 0;
    L["core.step_mean_us"] = SpanMeanNs(spans, "core.Update::Step") / 1e3;
    L["core.step_p99_us"] = replay.step_us.Quantile(0.99);
    L["query.rows_examined_per_step"] =
        replay.steps > 0 ? static_cast<double>(replay.rows_examined) /
                               static_cast<double>(replay.steps)
                         : 0;
  }
  return res;
}

bool SelfTestIngestIslands() {
  std::unique_ptr<Fixture> fx = BuildIslandsFixture();
  OpStream stream = MakeOps(fx.get(), StreamSeed(1, 0));
  stream.ops.resize(800);
  obs::MetricsRegistry metrics;
  auto pipeline = std::make_unique<IngestPipeline>(&fx->db, &fx->tgds,
                                                   PipelineOptions(&metrics));
  const ShardMap map = pipeline->shard_map();
  for (const WriteOp& op : stream.ops) {
    if (pipeline->Submit(op) != SubmitResult::kOk) return false;
  }
  const ParallelStats stats = pipeline->Flush();
  const std::vector<WriteOp> committed = pipeline->CommittedOpsInOrder();
  pipeline.reset();
  const uint64_t n = stream.ops.size();
  uint64_t tuples = 0;
  double ns = 0;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  auto replay_matches = [&](const std::vector<WriteOp>& ops,
                            const std::string& streamed) {
    const std::unique_ptr<Fixture> fresh = BuildIslandsFixture();
    ReplayCost cost;
    return ReplayCommitted(fresh.get(), fx->db.symbols(), ops, map, deadline,
                           &cost) &&
           DumpAll(fresh->db, &tuples, &ns) == streamed;
  };

  const std::string streamed = DumpAll(fx->db, &tuples, &ns);
  const bool intact =
      IngestCountsOk(n, stats.totals.updates_completed,
                     stats.totals.updates_failed, committed.size()) &&
      replay_matches(committed, streamed);
  // Corruptions: an op lost from the committed order, a write the
  // pipeline never made, and count mismatches.
  const std::vector<WriteOp> lost(committed.begin() + 1, committed.end());
  const bool lost_caught = !replay_matches(lost, streamed);
  InsertViolatingTuple(&fx->db, fx->tgds);
  const std::string tampered = DumpAll(fx->db, &tuples, &ns);
  const bool tamper_caught = !replay_matches(committed, tampered);
  const bool counts_caught =
      !IngestCountsOk(n, n - 1, 1, committed.size()) &&
      !IngestCountsOk(n, n, 0, committed.size() - 1);
  std::printf("selftest ingest-islands: intact=%d lost_op=%d tampered=%d "
              "counts=%d\n",
              intact, lost_caught, tamper_caught, counts_caught);
  return intact && lost_caught && tamper_caught && counts_caught;
}

}  // namespace ytbench
