// interactive-mixed: one user session on the Youtopia facade.
//
// The dense fixture is loaded through the public API (CreateRelation, then
// Insert of every tuple, then AddMapping — the data already satisfies every
// mapping, so no repair chase runs) and that load is part of set-up. The
// session then interleaves synchronous Query, Insert and Delete calls at
// about 50/40/10, closed-loop from one thread, in turns of kTurnCalls calls.
// Only the facade calls are timed; picking the next call's arguments is not.
// The session runs in episodes of kEpisodeTurns turns: each ends with the
// mapping check and a rewind to the loaded repository, and every
// kEpisodesPerLoad episodes the facade is loaded afresh (outside the
// measured time), so every episode starts from the paper-scale state and
// run length only sets the sample count.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/agent.h"
#include "ccontrol/scheduler.h"
#include "core/youtopia.h"
#include "obs/metrics.h"
#include "relational/value.h"
#include "util/rng.h"

namespace ytbench {
namespace {

using namespace youtopia;

constexpr size_t kTurnCalls = 10;
// Turns per episode; each episode starts from the loaded repository.
constexpr size_t kEpisodeTurns = 200;
// Episodes between fresh loads. A rewind leaves the rows an episode created
// behind as invisible orphans, and they slowed later episodes (the episode
// rate fell from 15.9k to 9.4k committed/s over a 40 s run); a fresh load
// every few episodes keeps the state each episode starts from the same.
constexpr uint64_t kEpisodesPerLoad = 25;
constexpr double kQueryShare = 0.5;
constexpr double kInsertShare = 0.4;  // the rest are deletes
constexpr uint64_t kReportedFailures = 5;  // failed calls echoed to stderr

std::string NullName(const Value& v) { return "?n" + std::to_string(v.id()); }

// Renders a fixture tuple as facade values; nulls become named nulls.
std::vector<std::string> Render(const TupleData& data,
                                const SymbolTable& symbols) {
  std::vector<std::string> out;
  out.reserve(data.size());
  for (const Value& v : data) {
    out.push_back(v.is_null() ? NullName(v)
                              : std::string(symbols.Text(v)));
  }
  return out;
}

// Maps each labeled null of the loaded facade to the name the load gave it.
// The facade holds every relation's distinct fixture rows in fixture order
// (set semantics drops equal-content rows); false if the shapes disagree.
bool NamesOfLoadedNulls(const Database& fixture, const Database& loaded,
                        std::unordered_map<uint64_t, std::string>* names) {
  for (RelationId r = 0; r < fixture.num_relations(); ++r) {
    std::vector<TupleData> from, to;
    std::set<TupleData> seen;
    fixture.relation(r).ForEachVisible(
        kReadLatest, [&](RowId, const TupleData& t) {
          if (seen.insert(t).second) from.push_back(t);
        });
    loaded.relation(r).ForEachVisible(
        kReadLatest, [&](RowId, const TupleData& t) { to.push_back(t); });
    if (from.size() != to.size()) return false;
    for (size_t i = 0; i < from.size(); ++i) {
      for (size_t p = 0; p < from[i].size(); ++p) {
        if (from[i][p].is_null() != to[i][p].is_null()) return false;
        if (from[i][p].is_null()) {
          names->emplace(to[i][p].id(), NullName(from[i][p]));
        }
      }
    }
  }
  return true;
}

// Loads `fx` into a fresh facade: schema, data, then mappings.
Status LoadFacade(const Fixture& fx, Youtopia* yt) {
  const Database& db = fx.db;
  for (RelationId r = 0; r < db.num_relations(); ++r) {
    const RelationSchema& schema = db.catalog().schema(r);
    Status s = yt->CreateRelation(schema.name, schema.attributes);
    if (!s.ok()) return s;
  }
  Snapshot snap(&db, kReadLatest);
  for (RelationId r = 0; r < db.num_relations(); ++r) {
    std::vector<TupleData> rows;
    snap.ForEachVisible(r, [&](RowId, const TupleData& t) {
      rows.push_back(t);
    });
    for (const TupleData& t : rows) {
      Result<UpdateReport> rep = yt->Insert(db.catalog().schema(r).name,
                                            Render(t, db.symbols()));
      if (!rep.ok()) return rep.status();
    }
  }
  for (const Tgd& tgd : fx.tgds) {
    Result<int> id = yt->AddMapping(tgd.ToString(db.catalog(), db.symbols()));
    if (!id.ok()) return id.status();
  }
  return Status::Ok();
}

}  // namespace

// The end-of-session check (shared with the self-test).
bool InteractiveStateOk(const Youtopia& yt, uint64_t failed_calls,
                        std::string* why) {
  if (failed_calls != 0) {
    *why = std::to_string(failed_calls) + " facade calls failed";
    return false;
  }
  if (!yt.AllMappingsSatisfied()) {
    *why = "a mapping is violated at the end of the session";
    return false;
  }
  return true;
}

RunResult RunInteractiveMixed(const RunOptions& opt) {
  RunResult res;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(150);

  // The fixture is the session's input: generated once, loaded many times.
  const std::unique_ptr<Fixture> fx = BuildDenseFixture();
  std::unique_ptr<Youtopia> yt;
  Database* db = nullptr;
  // The last version of the load: each episode rewinds here.
  uint64_t loaded_number = 0;
  // Nulls the session can name in a Delete: those the load created.
  std::unordered_map<uint64_t, std::string> null_names;
  // Loads the fixture into a fresh facade and points the session at it.
  // Set-up is this load; every reload is timed too, and setup_s is the
  // median over all of them.
  auto load = [&]() -> bool {
    // The previous facade goes first, so a reload never holds two
    // repositories and the peak resident set does not grow with the number
    // of reloads a run gets through.
    yt.reset();
    const Clock::time_point t0 = Clock::now();
    yt = std::make_unique<Youtopia>();
    const Status s = LoadFacade(*fx, yt.get());
    res.setup_s.Add(SecondsSince(t0), res.scale);
    if (!s.ok()) {
      res.Fail("facade load failed: " + s.ToString());
      return false;
    }
    yt->SetAgent(std::make_unique<RandomAgent>(StreamSeed(opt.seed, 5)));
    db = &yt->db();
    loaded_number = yt->next_update_number() - 1;
    null_names.clear();
    if (!NamesOfLoadedNulls(fx->db, *db, &null_names)) {
      res.Fail("the loaded facade does not hold the fixture's rows");
      return false;
    }
    return true;
  };
  res.Calibrate();
  if (!load()) return res;
  const size_t visible_before = db->CountVisible(kReadLatest);
  uint64_t episode_seq = db->next_seq(), physical_writes = 0, episodes = 0;
  size_t visible_peak = visible_before;
  uint64_t episode_committed = 0;
  double episode_start_s = 0;

  Rng rng(StreamSeed(opt.seed, 3));
  QueryMix query_mix(*fx, StreamSeed(opt.seed, 17));
  Samples eval_us;
  double answers = 0, write_ns = 0;
  uint64_t calls = 0, failed = 0, queries = 0, inserts = 0, deletes = 0;
  uint64_t steps = 0, frontier_ops = 0, answer_mismatches = 0, turns = 0;
  std::vector<std::string> values;

  while (res.measured_s < opt.seconds) {
    if (Clock::now() > deadline) {
      res.Fail("deadline exceeded after " + std::to_string(calls) + " calls");
      break;
    }
    double turn_s = 0;
    for (size_t c = 0; c < kTurnCalls; ++c) {
      const double u = rng.UniformDouble();
      ++calls;
      if (u < kQueryShare) {
        const ReadQuery q = query_mix.Next(*fx);
        const Clock::time_point t0 = Clock::now();
        Result<Youtopia::QueryAnswer> ans = [&] {
          ScopedSpan span("facade.Query", calls);
          return yt->Query(q.text, q.head, QuerySemantics::kCertain);
        }();
        const double dt = SecondsSince(t0);
        turn_s += dt;
        res.query_us.Add(dt * 1e6, res.scale);
        ++queries;
        if (!ans.ok()) {
          if (failed++ < kReportedFailures) {
            std::fprintf(stderr, "Query(%s) failed: %s\n", q.text.c_str(),
                         ans.status().ToString().c_str());
          }
          continue;
        }
        answers += static_cast<double>(ans->tuples.size());
        if (opt.traced) {
          // Layer split of the same query, outside the measured time: the
          // parser and the query engine called directly.
          double shadow_us = 0;
          const long n = RunReadQuery(db, q, &shadow_us, &eval_us);
          if (n != static_cast<long>(ans->tuples.size())) ++answer_mismatches;
        }
        continue;
      }

      const RelationId rel =
          static_cast<RelationId>(rng.Uniform(db->num_relations()));
      const std::string& name = db->catalog().schema(rel).name;
      values.clear();
      bool is_insert = u < kQueryShare + kInsertShare;
      if (!is_insert) {
        // Delete a visible tuple the session can name; fall back to an
        // insert when the relation holds none.
        std::vector<TupleData> rows;
        db->relation(rel).ForEachVisible(
            kReadLatest, [&](RowId, const TupleData& t) {
              for (const Value& v : t) {
                if (v.is_null() && null_names.count(v.id()) == 0) return;
              }
              rows.push_back(t);
            });
        if (rows.empty()) {
          is_insert = true;
        } else {
          for (const Value& v : rows[rng.Uniform(rows.size())]) {
            values.push_back(v.is_null() ? null_names.at(v.id())
                                         : std::string(db->symbols().Text(v)));
          }
        }
      }
      if (is_insert) {
        for (size_t p = 0; p < db->relation(rel).arity(); ++p) {
          if (rng.Chance(0.5)) {
            std::string fresh = "f_";
            for (int k = 0; k < 8; ++k) {
              fresh.push_back(static_cast<char>('a' + rng.Uniform(26)));
            }
            values.push_back(fresh);
          } else {
            // Pool constants are fixture values: render them by the
            // fixture's symbol table, not the facade's.
            values.push_back(std::string(fx->db.symbols().Text(
                fx->constants[rng.Uniform(fx->constants.size())])));
          }
        }
      }
      const Clock::time_point t0 = Clock::now();
      Result<UpdateReport> rep = [&] {
        ScopedSpan span(is_insert ? "facade.Insert" : "facade.Delete", calls);
        return is_insert ? yt->Insert(name, values) : yt->Delete(name, values);
      }();
      const double dt = SecondsSince(t0);
      turn_s += dt;
      write_ns += dt * 1e9;
      res.update_us.Add(dt * 1e6, res.scale);
      ++(is_insert ? inserts : deletes);
      if (!rep.ok() || !rep->completed) {
        if (failed++ < kReportedFailures) {
          std::fprintf(stderr, "%s into %s failed: %s\n",
                       is_insert ? "Insert" : "Delete", name.c_str(),
                       rep.ok() ? "step cap" : rep.status().ToString().c_str());
        }
        continue;
      }
      ++res.committed;
      steps += rep->steps;
      frontier_ops += rep->frontier_ops;
    }
    res.batch_ms.Add(turn_s * 1e3, res.scale);
    res.measured_s += turn_s;
    if (++turns % kEpisodeTurns == 0) {
      // End of an episode: check it, then rewind to the loaded repository.
      if (!yt->AllMappingsSatisfied()) {
        res.Fail("episode " + std::to_string(episodes) +
                 ": a mapping is violated");
      }
      visible_peak = std::max(visible_peak, db->CountVisible(kReadLatest));
      physical_writes += db->next_seq() - episode_seq;
      res.round_rate.Add(static_cast<double>(res.committed - episode_committed) /
                             (res.measured_s - episode_start_s),
                         1 / res.scale);
      episode_committed = res.committed;
      episode_start_s = res.measured_s;
      db->RemoveVersionsAbove(loaded_number);
      res.Calibrate();
      if (++episodes % kEpisodesPerLoad == 0 && !load()) break;
      episode_seq = db->next_seq();
    }
  }
  physical_writes += db->next_seq() - episode_seq;
  if (res.round_rate.size() == 0 && res.measured_s > 0) {
    res.round_rate.Add(static_cast<double>(res.committed) / res.measured_s,
                       1 / res.scale);
  }

  std::string why;
  if (!InteractiveStateOk(*yt, failed, &why)) res.Fail(why);
  if (answer_mismatches != 0) {
    res.Fail(std::to_string(answer_mismatches) +
             " facade answers differ from the query engine's");
  }
  res.attempted = calls;
  res.failed = failed;
  const size_t visible_end = db->CountVisible(kReadLatest);
  res.Note("turns", static_cast<double>(turns));
  res.Note("turn_calls", static_cast<double>(kTurnCalls));
  res.Note("queries", static_cast<double>(queries));
  res.Note("inserts", static_cast<double>(inserts));
  res.Note("deletes", static_cast<double>(deletes));
  res.Note("visible_before", static_cast<double>(visible_before));
  res.Note("episodes", static_cast<double>(episodes));
  res.Note("episodes_per_load", static_cast<double>(kEpisodesPerLoad));
  res.Note("episode_calls", static_cast<double>(kEpisodeTurns * kTurnCalls));
  res.Note("visible_after", static_cast<double>(visible_end));
  res.Note("visible_peak", static_cast<double>(std::max(visible_peak, visible_end)));

  if (opt.traced) {
    // The facade's writes are serial chases: no scheduler, no dooms.
    SchedulerStats facade;
    facade.total_steps = steps;
    facade.frontier_ops = frontier_ops;
    facade.physical_writes = physical_writes;
    AddEngineLayers(facade, obs::MetricsSnapshot(), &res);
    AddReadLayers(SpanRecorder::Get().Aggregate(), eval_us, answers, queries,
                  &res);
    uint64_t scan_tuples = 0;
    double scan_ns = 0;
    DumpAll(*db, &scan_tuples, &scan_ns);
    AddStorageLayers(visible_end, scan_tuples, scan_ns, &res);
    // The facade runs each chase inside one call: a step's mean cost is
    // the write calls' time over their chase steps.
    res.layer["core.step_mean_us"] =
        steps > 0 ? write_ns / static_cast<double>(steps) / 1e3 : 0;
  }
  return res;
}

bool SelfTestInteractiveMixed() {
  std::unique_ptr<Fixture> fx = BuildDenseFixture();
  Youtopia yt;
  if (!LoadFacade(*fx, &yt).ok()) return false;
  std::string why;
  const bool intact = InteractiveStateOk(yt, 0, &why);
  // A call that fails: deleting a tuple that does not exist.
  const Status missing =
      yt.Delete(fx->db.catalog().schema(0).name,
                std::vector<std::string>(fx->db.relation(0).arity(),
                                         "no_such_value"))
          .status();
  const bool failure_caught = !missing.ok() && !InteractiveStateOk(yt, 1, &why);
  InsertViolatingTuple(&yt.db(), yt.mappings());
  const bool violation_caught = !InteractiveStateOk(yt, 0, &why);
  std::printf("selftest interactive-mixed: intact=%d failed_call=%d "
              "violation=%d\n",
              intact, failure_caught, violation_caught);
  return intact && failure_caught && violation_caught;
}

}  // namespace ytbench
