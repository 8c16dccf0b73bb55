// serial-dense: the paper's engine at the paper's scale.
//
// Each round submits 500 concurrent updates (20% deletes, the Figure 4 mix)
// to a Scheduler with the COARSE tracker over the dense fixture, runs it to
// completion (the round's write time), reads back kQueriesPerRound
// certain-answer queries outside that time, checks that every mapping
// holds, and rewinds with RemoveVersionsAbove(0); every kRoundsPerFixture
// rounds it starts over on a fresh fixture. So a round always costs the
// same and the run length only sets the sample count. Rounds repeat until
// `seconds` of measured time ran.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "ccontrol/parallel/shard_map.h"
#include "ccontrol/scheduler.h"
#include "common.h"
#include "core/agent.h"
#include "core/update.h"
#include "core/violation_detector.h"
#include "obs/metrics.h"
#include "workload/generators.h"

namespace ytbench {
namespace {

using namespace youtopia;

constexpr size_t kRoundUpdates = 500;
constexpr double kDeleteShare = 0.2;
// Read-backs per round. They only set the query sample count: a 30 s run
// has 160-200 rounds, so 20 per round give the 1,000+ samples an exact p99
// needs.
constexpr size_t kQueriesPerRound = 20;
// Rounds between fresh fixtures. A rewind leaves the rows a round created
// behind as invisible orphans, and they slowed later rounds (per-round rate
// fell by a third over 120 s); a fresh fixture every few rounds keeps the
// state each round starts from the same.
constexpr uint64_t kRoundsPerFixture = 10;

SchedulerOptions EngineOptions(obs::MetricsRegistry* metrics) {
  SchedulerOptions so;
  so.tracker = TrackerKind::kCoarse;
  // The figure harnesses' caps (workload/experiment.h).
  so.max_steps_per_update = 1u << 14;
  so.max_attempts_per_update = 64;
  so.metrics = metrics;
  return so;
}

}  // namespace

// The per-round checks (shared with the self-test): every submitted update
// committed or failed, and the repository satisfies every mapping.
bool DenseRoundOk(const Fixture& fx, const SchedulerStats& stats,
                  uint64_t submitted, std::string* why) {
  if (stats.updates_completed + stats.updates_failed != submitted) {
    *why = "committed " + std::to_string(stats.updates_completed) +
           " + failed " + std::to_string(stats.updates_failed) +
           " != submitted " + std::to_string(submitted);
    return false;
  }
  ViolationDetector detector(&fx.tgds);
  if (!detector.SatisfiesAll(Snapshot(&fx.db, kReadLatest))) {
    *why = "a mapping is violated after the round";
    return false;
  }
  return true;
}

RunResult RunSerialDense(const RunOptions& opt) {
  RunResult res;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(150);

  // Set-up is building the fixture; every rebuild is timed too, and
  // setup_s is the median over all of them.
  auto build = [&res] {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Fixture> built = BuildDenseFixture();
    res.setup_s.Add(SecondsSince(t0), res.scale);
    return built;
  };
  res.Calibrate();
  std::unique_ptr<Fixture> fx = build();
  const size_t visible_before = fx->initial_visible;
  const ShardMap map(fx->db.num_relations(), fx->tgds, 1);
  std::vector<double> component_ns(map.num_components(), 0);

  obs::MetricsRegistry metrics;
  SchedulerStats total;
  QueryMix queries(*fx, StreamSeed(opt.seed, 17));
  Samples eval_us, replay_step_us;
  double answers = 0, engine_ns = 0, bare_ns = 0, scan_ns = 0;
  uint64_t rounds = 0, committed_steps = 0, rows_examined = 0;
  uint64_t replay_steps = 0, scan_tuples = 0, visible_end = 0;

  while (res.measured_s < opt.seconds) {
    if (Clock::now() > deadline) {
      res.Fail("deadline exceeded before round " + std::to_string(rounds));
      break;
    }
    res.Calibrate();
    const uint64_t round_seed = StreamSeed(opt.seed, rounds);
    Rng wl_rng(round_seed);
    WorkloadOptions wl;
    wl.num_updates = kRoundUpdates;
    wl.delete_fraction = kDeleteShare;
    const std::vector<WriteOp> ops =
        GenerateWorkload(&fx->db, fx->constants, &wl_rng, wl);
    RandomAgent agent(round_seed ^ 0x5bd1e995);
    auto engine = std::make_unique<Scheduler>(&fx->db, &fx->tgds, &agent,
                                              EngineOptions(&metrics));

    const Clock::time_point tb = Clock::now();
    {
      ScopedSpan round_span("bench.round", rounds);
      for (size_t i = 0; i < ops.size(); ++i) {
        ScopedSpan span("ccontrol.Scheduler::Submit", i);
        engine->Submit(ops[i]);
      }
      ScopedSpan span("ccontrol.Scheduler::RunToCompletion", rounds);
      engine->RunToCompletion();
    }
    const double round_s = SecondsSince(tb);
    const SchedulerStats& stats = engine->stats();
    res.batch_ms.Add(round_s * 1e3, res.scale);
    res.update_us.Add(round_s * 1e6 /
                          static_cast<double>(
                              std::max<uint64_t>(stats.updates_completed, 1)),
                      res.scale);
    total.Merge(stats);
    engine_ns += round_s * 1e9;

    std::string why;
    if (!DenseRoundOk(*fx, stats, ops.size(), &why)) {
      res.Fail("round " + std::to_string(rounds) + ": " + why);
    }

    // Read-back queries on the round's final state.
    const Clock::time_point tq = Clock::now();
    for (size_t q = 0; q < kQueriesPerRound; ++q) {
      double latency_us = 0;
      const long n = RunReadQuery(&fx->db, queries.Next(*fx), &latency_us,
                                  &eval_us);
      if (n < 0) {
        res.Fail("read-back query failed to parse");
      } else {
        res.query_us.Add(latency_us, res.scale);
      }
      answers += static_cast<double>(std::max(n, 0L));
    }
    res.measured_s += round_s + SecondsSince(tq);
    res.round_rate.Add(static_cast<double>(stats.updates_completed) / round_s,
                       1 / res.scale);

    if (opt.traced) {
      const auto committed = engine->CommittedOpsWithNumbers();
      for (const auto& [number, op] : committed) {
        const Update* u = engine->FindUpdate(number);
        if (u != nullptr) committed_steps += u->steps_taken();
      }
      rows_examined += engine->TotalRowsExamined();
      DumpAll(fx->db, &scan_tuples, &scan_ns);
      visible_end = fx->db.CountVisible(kReadLatest);
      // Bare serial execution of the committed ops, for the engine's
      // concurrency-control overhead.
      fx->db.RemoveVersionsAbove(0);
      RandomAgent replay_agent(round_seed ^ 0x5bd1e995);
      uint64_t number = 1;
      for (const auto& [ignored, op] : committed) {
        Update u(number++, op, &fx->tgds);
        while (!u.finished()) {
          const uint64_t t0 = NowNs();
          {
            ScopedSpan span("core.Update::Step", number - 1);
            u.Step(&fx->db, &replay_agent);
          }
          const double dt = static_cast<double>(NowNs() - t0);
          bare_ns += dt;
          component_ns[map.ComponentOf(op.rel)] += dt;
          replay_step_us.Add(dt / 1e3);
          ++replay_steps;
        }
      }
    } else {
      visible_end = fx->db.CountVisible(kReadLatest);
    }
    engine.reset();
    fx->db.RemoveVersionsAbove(0);
    if (++rounds % kRoundsPerFixture == 0) fx = build();
  }

  res.attempted = total.updates_submitted;
  res.failed = total.updates_failed;
  res.committed = total.updates_completed;
  res.Note("rounds", static_cast<double>(rounds));
  res.Note("rounds_per_fixture", static_cast<double>(kRoundsPerFixture));
  res.Note("round_updates", static_cast<double>(kRoundUpdates));
  res.Note("delete_share", kDeleteShare);
  res.Note("queries_per_round", static_cast<double>(kQueriesPerRound));
  res.Note("aborts", static_cast<double>(total.aborts));
  res.Note("visible_before", static_cast<double>(visible_before));
  res.Note("visible_after_last_round", static_cast<double>(visible_end));

  if (opt.traced) {
    const auto spans = SpanRecorder::Get().Aggregate();
    AddEngineLayers(total, metrics.Snapshot(), &res);
    AddReadLayers(spans, eval_us, answers, res.query_us.size(), &res);
    AddStorageLayers(visible_end, scan_tuples, scan_ns, &res);
    auto& L = res.layer;
    L["ccontrol.wasted_step_share"] =
        total.total_steps > 0
            ? 1.0 - static_cast<double>(committed_steps) /
                        static_cast<double>(total.total_steps)
            : 0;
    L["ccontrol.overhead_share"] =
        engine_ns > 0 ? 1.0 - bare_ns / engine_ns : 0;
    L["core.step_mean_us"] = SpanMeanNs(spans, "core.Update::Step") / 1e3;
    L["core.step_p99_us"] = replay_step_us.Quantile(0.99);
    L["core.top_component_share"] =
        bare_ns > 0
            ? *std::max_element(component_ns.begin(), component_ns.end()) /
                  bare_ns
            : 0;
    L["query.rows_examined_per_step"] =
        total.total_steps > 0 ? static_cast<double>(rows_examined) /
                                    static_cast<double>(total.total_steps)
                              : 0;
  }
  return res;
}

bool SelfTestSerialDense() {
  std::unique_ptr<Fixture> fx = BuildDenseFixture();
  Rng rng(StreamSeed(1, 0));
  WorkloadOptions wl;
  wl.num_updates = 100;
  wl.delete_fraction = kDeleteShare;
  const std::vector<WriteOp> ops =
      GenerateWorkload(&fx->db, fx->constants, &rng, wl);
  RandomAgent agent(7);
  Scheduler engine(&fx->db, &fx->tgds, &agent, EngineOptions(nullptr));
  for (const WriteOp& op : ops) engine.Submit(op);
  engine.RunToCompletion();
  std::string why;
  const bool intact = DenseRoundOk(*fx, engine.stats(), ops.size(), &why);
  const bool count_caught =
      !DenseRoundOk(*fx, engine.stats(), ops.size() + 1, &why);
  InsertViolatingTuple(&fx->db, fx->tgds);
  const bool violation_caught =
      !DenseRoundOk(*fx, engine.stats(), ops.size(), &why);
  std::printf("selftest serial-dense: intact=%d counts=%d violation=%d\n",
              intact, count_caught, violation_caught);
  return intact && count_caught && violation_caught;
}

}  // namespace ytbench
