#include "ccontrol/parallel/intra_shard.h"

#include <atomic>
#include <deque>
#include <utility>

#include "util/check.h"

namespace youtopia {

IntraComponentCc::IntraComponentCc(Database* db, const std::vector<Tgd>& tgds,
                                   IntraCcOptions options)
    : db_(db),
      options_(std::move(options)),
      tgds_(tgds),
      component_lock_(options_.component_lock),
      checker_(&tgds_, &arena_),
      read_log_(&tgds_),
      tracker_(options_.tracker == TrackerKind::kPrecise
                   ? TrackerKind::kCoarse
                   : options_.tracker,
               &tgds_, &arena_),
      sub_committed_(options_.num_subs, 0) {
  CHECK(options_.component_lock != nullptr);
  CHECK(options_.requeue != nullptr);
  CHECK(options_.on_commit != nullptr);
  storage_latch_.SetLockOrder(LockRank::kStorageLatch);
}

uint64_t IntraComponentCc::Begin(std::atomic<uint64_t>* next_number) {
  // Claim and registration must be one atomic step: a number claimed but not
  // yet in active_ is invisible to TryCommitLocked's floor, letting a
  // higher-numbered op commit past it — a retro-abortable committed op.
  MutexLock lock(mu_);
  const uint64_t number = next_number->fetch_add(1, std::memory_order_relaxed);
  active_.insert(number);
  return number;
}

bool IntraComponentCc::Doomed(uint64_t number) const {
  MutexLock lock(mu_);
  return doomed_.count(number) > 0;
}

void IntraComponentCc::AbandonDoomed(uint64_t number) {
  MutexLock lock(mu_);
  CHECK_EQ(doomed_.erase(number), 1u);
  CHECK_EQ(active_.erase(number), 1u);
  TryCommitLocked();
}

size_t IntraComponentCc::RegisterReads(uint64_t number,
                                       std::vector<ReadQueryRecord>* reads,
                                       size_t* registered) {
  const size_t from = *registered;
  if (from >= reads->size()) return 0;
  MutexLock lock(mu_);
  // The tracker first (it needs the write log's current state; the records
  // themselves are moved into the read log right after). A doomed runner
  // never gets here: dooming requires the exclusive latch, and the doom
  // check at this phase's entry ran under the same hold as this call.
  Snapshot snap(db_, number);
  if (from == 0) {
    tracker_.OnReads(snap, number, *reads, write_log_);
  } else {
    // OnReads takes the whole vector; hand it just the unregistered suffix.
    suffix_scratch_.assign(std::make_move_iterator(reads->begin() + from),
                           std::make_move_iterator(reads->end()));
    tracker_.OnReads(snap, number, suffix_scratch_, write_log_);
    for (ReadQueryRecord& q : suffix_scratch_) {
      read_log_.Record(number, std::move(q));
    }
    *registered = reads->size();
    return reads->size() - from;
  }
  for (size_t i = from; i < reads->size(); ++i) {
    read_log_.Record(number, std::move((*reads)[i]));
  }
  const size_t n = reads->size() - from;
  *registered = reads->size();
  return n;
}

void IntraComponentCc::OnWrites(uint64_t number,
                                const std::vector<PhysicalWrite>& writes) {
  MutexLock lock(mu_);
  obs::ScopedLatency probe_latency(options_.metrics,
                                   obs::Stage::kConflictProbe);
  obs::TraceSpan probe_span(obs::TraceName::kConflictProbe, number);
  arena_.ResetIfAbove(64 * 1024);
  for (const PhysicalWrite& w : writes) write_log_.Record(number, w);
  // The retroactive checker's residual plans go stale as the database
  // mutates, same as the serial scheduler's (see Scheduler::StepOne); the
  // caller holds the storage latch exclusively, so the refresh — which may
  // register index demands — is safe here and only here.
  if (replan_poller_.ShouldPoll(*db_)) checker_.MaybeReplan(db_);
  if (writes.empty()) return;
  direct_scratch_.clear();
  read_log_.ForEachCandidateBatch(
      writes, number,
      [&](uint64_t reader, const ReadQueryRecord& q, const PhysicalWrite& w) {
        Snapshot reader_snap(db_, reader);
        if (!checker_.Conflicts(reader_snap, w, q)) return false;
        direct_scratch_.insert(reader);
        if (options_.metrics != nullptr) {
          options_.metrics->Add(DoomCauseCounter(q.kind));
        }
        return true;  // reader doomed; skip its remaining queries
      });
  if (direct_scratch_.empty()) return;
  stats_.direct_conflict_aborts += direct_scratch_.size();
  std::unordered_set<uint64_t> marked;
  CollectClosureLocked(direct_scratch_, &marked);
  if (options_.metrics != nullptr && marked.size() > direct_scratch_.size()) {
    options_.metrics->Add(obs::Counter::kDoomCascade,
                          marked.size() - direct_scratch_.size());
  }
  for (uint64_t v : marked) DoomOneLocked(v);
  // Dooming never advances the commit floor (victims are all above the
  // prober, which is still active), so no TryCommit here.
}

bool IntraComponentCc::FinishOk(uint64_t number, WriteOp op, uint32_t sub,
                                uint32_t attempts, uint64_t frontier_ops,
                                uint64_t enqueue_ns) {
  MutexLock lock(mu_);
  if (doomed_.erase(number) > 0) {
    // Doomed in the window between the last phase's latch release and this
    // call; the doomer already undid everything.
    CHECK_EQ(active_.erase(number), 1u);
    TryCommitLocked();
    return false;
  }
  CHECK_EQ(active_.erase(number), 1u);
  Parked& rec = finished_[number];
  rec.op = std::move(op);
  rec.sub = sub;
  rec.attempts = attempts;
  rec.frontier_ops = frontier_ops;
  rec.park_ns = obs::MonotonicNs();
  rec.enqueue_ns = enqueue_ns;
  TryCommitLocked();
  return true;
}

bool IntraComponentCc::FinishFailed(uint64_t number) {
  MutexLock lock(mu_);
  if (doomed_.erase(number) > 0) {
    CHECK_EQ(active_.erase(number), 1u);
    TryCommitLocked();
    return false;
  }
  CHECK_EQ(active_.erase(number), 1u);
  failed_.insert(number);
  TryCommitLocked();
  return true;
}

void IntraComponentCc::SurrenderEscape(uint64_t number) {
  MutexLock lock(mu_);
  // Escape is detected inside StepApply, under a continuous exclusive latch
  // hold since the phase's doom check — nothing can have doomed us.
  CHECK_EQ(doomed_.count(number), 0u);
  // Readers of the about-to-be-retracted writes must go first (their
  // closure needs this number's tracker edges).
  std::unordered_set<uint64_t> marked;
  CollectClosureLocked({number}, &marked);
  marked.erase(number);
  write_log_.ForEachEntryOf(number, [&](const PhysicalWrite& w) {
    db_->RemoveRowVersions(w.rel, w.row, number);
  });
  write_log_.EraseUpdate(number);
  read_log_.EraseUpdate(number);
  tracker_.EraseUpdate(number);
  CHECK_EQ(active_.erase(number), 1u);
  for (uint64_t v : marked) DoomOneLocked(v);
  TryCommitLocked();
}

void IntraComponentCc::CommitEscalated(uint64_t number, WriteOp op,
                                       uint32_t sub, uint64_t frontier_ops) {
  MutexLock lock(mu_);
  committed_.emplace_back(number, std::move(op));
  ++stats_.updates_completed;
  stats_.frontier_ops += frontier_ops;
  if (sub < sub_committed_.size()) ++sub_committed_[sub];
  if (options_.metrics != nullptr) {
    options_.metrics->Add(obs::Counter::kCommits);
  }
  obs::TraceCommit(number);
  options_.on_commit();
}

void IntraComponentCc::AssertQuiescent() const {
  MutexLock lock(mu_);
  CHECK(active_.empty());
  CHECK(finished_.empty());
  CHECK(doomed_.empty());
}

void IntraComponentCc::AppendCommitted(
    std::vector<std::pair<uint64_t, WriteOp>>* out) const {
  MutexLock lock(mu_);
  out->insert(out->end(), committed_.begin(), committed_.end());
}

SchedulerStats IntraComponentCc::StatsSnapshot() const {
  MutexLock lock(mu_);
  return stats_;
}

std::vector<uint64_t> IntraComponentCc::SubCommitted() const {
  MutexLock lock(mu_);
  return sub_committed_;
}

uint64_t IntraComponentCc::aborts() const {
  MutexLock lock(mu_);
  return stats_.aborts;
}

std::vector<uint64_t> IntraComponentCc::ParkedNumbers() const {
  MutexLock lock(mu_);
  std::vector<uint64_t> out;
  out.reserve(finished_.size());
  for (const auto& kv : finished_) out.push_back(kv.first);
  return out;
}

void IntraComponentCc::CollectClosureLocked(
    const std::unordered_set<uint64_t>& roots,
    std::unordered_set<uint64_t>* marked) {
  marked->insert(roots.begin(), roots.end());
  std::deque<uint64_t> queue(roots.begin(), roots.end());
  auto request = [&](uint64_t m) {
    if (marked->insert(m).second) {
      ++stats_.cascading_abort_requests;
      queue.push_back(m);
    }
  };
  while (!queue.empty()) {
    const uint64_t i = queue.front();
    queue.pop_front();
    if (tracker_.kind() == TrackerKind::kNaive) {
      // NAIVE: no dependencies tracked — everything above i is suspect
      // (mirrors Scheduler::CascadeFrom).
      for (auto it = active_.upper_bound(i); it != active_.end(); ++it) {
        request(*it);
      }
      for (auto it = finished_.upper_bound(i); it != finished_.end(); ++it) {
        request(it->first);
      }
    } else {
      tracker_.ForEachReaderOf(i, request);
    }
  }
}

void IntraComponentCc::DoomOneLocked(uint64_t victim) {
  // Already doomed in an earlier batch: logs erased, writes undone, runner
  // not yet at a phase boundary. (Reachable only through the NAIVE
  // enumeration — erased tracker edges can't resurface a victim.)
  if (doomed_.count(victim) > 0) return;
  obs::TraceInstant(obs::TraceName::kDoom, victim);
  write_log_.ForEachEntryOf(victim, [&](const PhysicalWrite& w) {
    db_->RemoveRowVersions(w.rel, w.row, victim);
  });
  write_log_.EraseUpdate(victim);
  read_log_.EraseUpdate(victim);
  tracker_.EraseUpdate(victim);
  ++stats_.aborts;
  if (failed_.erase(victim) > 0) return;  // written off; stays dead
  auto parked = finished_.find(victim);
  if (parked != finished_.end()) {
    // No runner to notice a doom mark — bounce it back through the inbox.
    Parked rec = std::move(parked->second);
    finished_.erase(parked);
    options_.requeue(std::move(rec.op), rec.attempts + 1);
    return;
  }
  CHECK_EQ(active_.count(victim), 1u);
  doomed_.insert(victim);
}

void IntraComponentCc::TryCommitLocked() {
  const uint64_t floor = active_.empty() ? UINT64_MAX : *active_.begin();
  while (!finished_.empty() && finished_.begin()->first < floor) {
    auto it = finished_.begin();
    const uint64_t number = it->first;
    write_log_.EraseUpdate(number);
    read_log_.EraseUpdate(number);
    tracker_.EraseUpdate(number);
    committed_.emplace_back(number, std::move(it->second.op));
    ++stats_.updates_completed;
    stats_.frontier_ops += it->second.frontier_ops;
    if (it->second.sub < sub_committed_.size()) {
      ++sub_committed_[it->second.sub];
    }
    if (options_.metrics != nullptr) {
      const uint64_t now = obs::MonotonicNs();
      options_.metrics->Add(obs::Counter::kCommits);
      options_.metrics->RecordLatency(obs::Stage::kCommitPark,
                                      now - it->second.park_ns);
      if (it->second.enqueue_ns != 0) {
        options_.metrics->RecordLatency(obs::Stage::kCommit,
                                        now - it->second.enqueue_ns);
      }
    }
    obs::TraceCommit(number);
    finished_.erase(it);
    options_.on_commit();
  }
  // A failed number below the floor can never be doomed again (probes only
  // ever reach readers *above* the prober, and nothing below the floor is
  // live) — its logs are garbage now; drop them.
  while (!failed_.empty() && *failed_.begin() < floor) {
    const uint64_t number = *failed_.begin();
    write_log_.EraseUpdate(number);
    read_log_.EraseUpdate(number);
    tracker_.EraseUpdate(number);
    failed_.erase(failed_.begin());
  }
}

}  // namespace youtopia
