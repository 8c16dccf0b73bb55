#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory_resource>
#include <unordered_map>

#include "core/agent.h"
#include "query/atom.h"
#include "relational/tuple.h"
#include "tgd/parser.h"
#include "workload/generators.h"

namespace ytbench {

using namespace youtopia;

void Samples::Add(double v) {
  ++added_;
  if (values_.size() < kMaxKept) {
    values_.push_back(v);
    sorted_ = false;
    return;
  }
  // Algorithm R: the new value replaces a kept one with probability
  // kMaxKept / added_, which keeps every value added equally likely kept.
  const uint64_t slot = rng_.Uniform(added_);
  if (slot < kMaxKept) {
    values_[slot] = v;
    sorted_ = false;
  }
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::min(std::max<size_t>(rank, 1), values_.size());
  return values_[rank - 1];
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double ReferenceKernelMs() {
  constexpr size_t kKeys = 20000;
  // The kernel's own memory, allocated once: it never touches the heap the
  // program under test shares, so the program's allocation pattern cannot
  // move the kernel's time.
  constexpr size_t kArenaBytes = size_t{4} << 20;
  static std::byte* const arena = new std::byte[kArenaBytes];
  static std::atomic<uint64_t> sink{0};  // keeps the work observable
  const Clock::time_point t0 = Clock::now();
  uint64_t sum = 0;
  {
    std::pmr::monotonic_buffer_resource pool(arena, kArenaBytes,
                                             std::pmr::null_memory_resource());
    std::pmr::unordered_map<uint64_t, uint64_t> counts(&pool);
    std::pmr::vector<uint64_t> keys(&pool);
    keys.reserve(kKeys);
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (size_t i = 0; i < kKeys; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      counts[x >> 44] += i;
      keys.push_back(x);
    }
    std::sort(keys.begin(), keys.end());
    sum = counts.size();
    for (size_t i = 0; i < kKeys; i += 97) sum += keys[i];
  }
  sink.fetch_add(sum, std::memory_order_relaxed);
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void RunResult::Calibrate() {
  const double ms = ReferenceKernelMs();
  reference_ms.Add(ms);
  scale = kReferenceNominalMs / ms;
}

void RunResult::Note(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  provenance.emplace_back(key, buf);
}

// ---------------------------------------------------------------------------

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

int32_t SpanRecorder::Begin(const char* name, uint64_t op) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, op});
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans are strictly nested (RAII on one thread).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanRecorder::NameStats> SpanRecorder::Aggregate()
    const {
  std::vector<double> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns != 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, NameStats> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    NameStats& st = out[s.name];
    ++st.count;
    st.self_ns += dur - child_ns[i];
  }
  return out;
}

double SpanMeanNs(const SpanTable& spans, const char* name) {
  auto it = spans.find(name);
  return it == spans.end() || it->second.count == 0
             ? 0.0
             : it->second.self_ns / static_cast<double>(it->second.count);
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%llu}}",
                 first ? "" : ",\n", s.name,
                 static_cast<int>(std::string_view(s.name).find('.')), s.name,
                 static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<unsigned long long>(s.op));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

std::unique_ptr<Fixture> BuildIslandsFixture() {
  auto fx = std::make_unique<Fixture>();
  Rng rng(kFixtureSeed);
  SchemaGenOptions schema;
  schema.num_relations = 40;
  CHECK(GenerateSchema(&fx->db, &rng, schema).ok());
  fx->constants = GenerateConstantPool(&fx->db, &rng, 50);
  MappingGenOptions mappings;
  mappings.count = 56;
  mappings.num_islands = 8;
  // No existential right-hand-side positions (p_within_atom_repeat = 1 is
  // needed too, see bench/streaming_ingest.cc): chases create no nulls, so
  // the serial replay can demand byte equality.
  mappings.p_frontier = 1.0;
  mappings.p_within_atom_repeat = 1.0;
  fx->tgds = GenerateMappings(fx->db, fx->constants, &rng, mappings);
  InitialDataOptions data;
  data.num_tuples = 300;
  data.max_steps_per_insert = 1u << 17;
  MinContentAgent agent;
  fx->initial_visible =
      GenerateInitialData(&fx->db, &fx->tgds, fx->constants, &rng, &agent,
                          data)
          .total_tuples;
  return fx;
}

std::unique_ptr<Fixture> BuildDenseFixture() {
  auto fx = std::make_unique<Fixture>();
  Rng rng(kFixtureSeed);
  SchemaGenOptions schema;
  schema.num_relations = 100;
  CHECK(GenerateSchema(&fx->db, &rng, schema).ok());
  fx->constants = GenerateConstantPool(&fx->db, &rng, 50);
  MappingGenOptions mappings;
  mappings.count = 100;
  fx->tgds = GenerateMappings(fx->db, fx->constants, &rng, mappings);
  InitialDataOptions data;
  data.num_tuples = 10000;
  data.max_steps_per_insert = 1u << 17;
  RandomAgent agent(kFixtureSeed ^ 0x9e3779b97f4a7c15ULL);
  fx->initial_visible =
      GenerateInitialData(&fx->db, &fx->tgds, fx->constants, &rng, &agent,
                          data)
          .total_tuples;
  return fx;
}

// ---------------------------------------------------------------------------

QueryMix::QueryMix(const Fixture& fx, uint64_t seed) : rng_(seed) {
  for (size_t i = 0; i < fx.tgds.size(); ++i) {
    const std::vector<VarId> vars = fx.tgds[i].lhs().Variables();
    if (vars.size() == 1) {
      shapes_.push_back(Shape{i, vars[0], false});
      continue;
    }
    for (VarId v : vars) shapes_.push_back(Shape{i, v, true});
  }
  next_ = rng_.Uniform(shapes_.size());
}

ReadQuery QueryMix::Next(const Fixture& fx) {
  const Shape& shape = shapes_[next_];
  next_ = (next_ + 1) % shapes_.size();
  ConjunctiveQuery body = fx.tgds[shape.tgd].lhs();
  const std::vector<VarId> vars = body.Variables();
  VarId max_var = 0;
  for (VarId v : vars) max_var = std::max(max_var, v);
  std::vector<std::string> names(max_var + 1);
  for (VarId v = 0; v <= max_var; ++v) names[v] = "x" + std::to_string(v);

  const Value c = fx.constants[rng_.Uniform(fx.constants.size())];
  if (shape.bind) {
    for (Atom& atom : body.atoms) {
      for (Term& t : atom.terms) {
        if (t.is_variable() && t.var() == shape.bound) t = Term::Const(c);
      }
    }
  }
  ReadQuery q;
  q.text = QueryToString(body, fx.db.catalog(), fx.db.symbols(), names);
  for (VarId v : vars) {
    if (!shape.bind || v != shape.bound) q.head.push_back(names[v]);
  }
  return q;
}

long RunReadQuery(Database* db, const ReadQuery& q, double* latency_us,
                  Samples* eval_us) {
  const Clock::time_point t0 = Clock::now();
  ScopedSpan span("bench.read_query");
  TgdParser parser(&db->catalog(), &db->symbols());
  Result<TgdParser::ParsedQuery> parsed = [&] {
    ScopedSpan s("tgd.ParseQuery");
    return parser.ParseQuery(q.text);
  }();
  if (!parsed.ok()) return -1;
  std::vector<VarId> head;
  for (const std::string& name : q.head) {
    Result<VarId> v = parsed->VarByName(name);
    if (!v.ok()) return -1;
    head.push_back(*v);
  }
  const Clock::time_point t2 = Clock::now();
  size_t answers = 0;
  {
    ScopedSpan s("query.Evaluate");
    Snapshot snap(db, kReadLatest);
    QueryEngine engine(snap);
    answers = engine.Evaluate(parsed->body, head, QuerySemantics::kCertain)
                  .size();
  }
  const Clock::time_point t3 = Clock::now();
  *latency_us = std::chrono::duration<double, std::micro>(t3 - t0).count();
  eval_us->Add(std::chrono::duration<double, std::micro>(t3 - t2).count());
  return static_cast<long>(answers);
}

std::string DumpAll(const Database& db, uint64_t* tuples, double* scan_ns) {
  std::string out;
  Snapshot snap(&db, kReadLatest);
  std::vector<TupleData> rows;
  std::vector<std::string> rendered;
  for (RelationId r = 0; r < db.num_relations(); ++r) {
    rows.clear();
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span("relational.ForEachVisible", r);
      snap.ForEachVisible(r, [&](RowId, const TupleData& t) {
        rows.push_back(t);
      });
    }
    *scan_ns += static_cast<double>(NowNs() - t0);
    *tuples += rows.size();
    rendered.clear();
    for (const TupleData& t : rows) {
      rendered.push_back(TupleToString(t, db.symbols()));
    }
    std::sort(rendered.begin(), rendered.end());
    out += db.catalog().schema(r).name + ":";
    for (const std::string& s : rendered) out += " " + s + ";";
    out += "\n";
  }
  return out;
}

void AddEngineLayers(const SchedulerStats& t, const obs::MetricsSnapshot& snap,
                     RunResult* res) {
  const double commits =
      std::max<double>(1, static_cast<double>(res->committed));
  auto per_commit = [&](uint64_t v) {
    return static_cast<double>(v) / commits;
  };
  auto& L = res->layer;
  L["ccontrol.aborts_per_commit"] = per_commit(t.aborts);
  L["ccontrol.direct_aborts_per_commit"] =
      per_commit(t.direct_conflict_aborts);
  L["ccontrol.cascade_requests_per_commit"] =
      per_commit(t.cascading_abort_requests);
  L["ccontrol.doom_violation"] =
      per_commit(snap.counter(obs::Counter::kDoomReadViolation));
  L["ccontrol.doom_more_specific"] =
      per_commit(snap.counter(obs::Counter::kDoomReadMoreSpecific));
  L["ccontrol.doom_null_occurrence"] =
      per_commit(snap.counter(obs::Counter::kDoomReadNullOccurrence));
  L["ccontrol.doom_cascade"] =
      per_commit(snap.counter(obs::Counter::kDoomCascade));
  L["ccontrol.read_queries_per_commit"] = per_commit(t.read_queries);
  L["core.steps_per_commit"] = per_commit(t.total_steps);
  L["core.frontier_ops_per_commit"] = per_commit(t.frontier_ops);
  L["relational.physical_writes_per_commit"] = per_commit(t.physical_writes);
}

void AddReadLayers(const SpanTable& spans, const Samples& eval_us,
                   double answers, size_t queries, RunResult* res) {
  auto& L = res->layer;
  L["query.eval_mean_us"] = SpanMeanNs(spans, "query.Evaluate") / 1e3;
  L["query.eval_p99_us"] = eval_us.Quantile(0.99);
  L["query.answers_per_query"] =
      answers / std::max<double>(1, static_cast<double>(queries));
  L["tgd.parse_mean_us"] = SpanMeanNs(spans, "tgd.ParseQuery") / 1e3;
}

void AddStorageLayers(uint64_t visible_end, uint64_t scan_tuples,
                      double scan_ns, RunResult* res) {
  res->layer["relational.visible_tuples_end"] =
      static_cast<double>(visible_end);
  res->layer["relational.scan_ns_per_tuple"] =
      scan_tuples > 0 ? scan_ns / static_cast<double>(scan_tuples) : 0;
}

void InsertViolatingTuple(Database* db, const std::vector<Tgd>& tgds) {
  for (const Tgd& tgd : tgds) {
    if (tgd.lhs().atoms.size() != 1) continue;
    const Atom& atom = tgd.lhs().atoms[0];
    TupleData data;
    for (const Term& t : atom.terms) {
      data.push_back(t.is_constant()
                         ? t.constant()
                         : db->InternConstant("corrupt_" +
                                              std::to_string(t.var())));
    }
    db->Apply(WriteOp::Insert(atom.rel, std::move(data)), uint64_t{1} << 40);
    return;
  }
  CHECK(false);  // every fixture has a one-atom left-hand side
}

}  // namespace ytbench
