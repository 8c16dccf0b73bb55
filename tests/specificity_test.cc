#include "query/specificity.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "test_util.h"
#include "util/rng.h"

namespace youtopia {
namespace {

const Value kA = Value::Constant(1);
const Value kB = Value::Constant(2);
const Value kN1 = Value::Null(1);
const Value kN2 = Value::Null(2);
const Value kN3 = Value::Null(3);

TEST(SpecificityTest, PaperExampleCityTuple) {
  // C(NYC) is more specific than C(x4), not vice versa.
  EXPECT_TRUE(IsMoreSpecific({kA}, {kN1}));
  EXPECT_FALSE(IsMoreSpecific({kN1}, {kA}));
}

TEST(SpecificityTest, Reflexive) {
  EXPECT_TRUE(IsMoreSpecific({kA, kN1}, {kA, kN1}));
}

TEST(SpecificityTest, ConstantsMustMatchExactly) {
  EXPECT_FALSE(IsMoreSpecific({kB}, {kA}));
  EXPECT_TRUE(IsMoreSpecific({kA, kB}, {kA, kN1}));
  EXPECT_FALSE(IsMoreSpecific({kA, kB}, {kB, kN1}));
}

TEST(SpecificityTest, MapMustBeAFunction) {
  // (n1, n1) can map to (a, a) but not to (a, b).
  EXPECT_TRUE(IsMoreSpecific({kA, kA}, {kN1, kN1}));
  EXPECT_FALSE(IsMoreSpecific({kA, kB}, {kN1, kN1}));
}

TEST(SpecificityTest, NullToNullRenamingCounts) {
  // Definition 2.4 allows f to map nulls to nulls.
  EXPECT_TRUE(IsMoreSpecific({kN2}, {kN1}));
  EXPECT_TRUE(IsMoreSpecific({kN2, kN2}, {kN1, kN1}));
  EXPECT_FALSE(IsMoreSpecific({kN2, kN3}, {kN1, kN1}));
}

TEST(SpecificityTest, DifferentArityNeverComparable) {
  EXPECT_FALSE(IsMoreSpecific({kA}, {kA, kB}));
}

TEST(SpecificityTest, DuplicateAndStaleIndexCandidatesReportRowOnce) {
  // FindMoreSpecificRows fetches candidates through the column index, whose
  // buckets list a row once even when it was re-indexed under the same value
  // (null replacement) but still list rows that are no longer visible
  // (deleted). Each surviving row must be reported exactly once.
  Database db;
  const RelationId r = *db.CreateRelation("R", {"a", "b"});
  const Value a = db.InternConstant("A");
  const Value b = db.InternConstant("B");
  const Value x = db.FreshNull();
  const auto w0 = db.Apply(WriteOp::Insert(r, {a, x}), 0);  // row 0
  ASSERT_EQ(w0.size(), 1u);
  const auto w1 =
      db.Apply(WriteOp::Insert(r, {a, db.InternConstant("C")}), 0);  // row 1
  ASSERT_EQ(w1.size(), 1u);
  db.Apply(WriteOp::NullReplace(x, b), 1);  // row 0 -> (A, B), re-indexed
  db.Apply(WriteOp::Delete(r, w1[0].row), 2);  // row 1 -> stale entries

  std::vector<RowId> candidates;
  db.relation(r).CandidateRows(0, a, &candidates);
  ASSERT_EQ(candidates.size(), 2u);  // row0 (indexed once), row1 (stale)

  Snapshot snap(&db, kReadLatest);
  std::vector<RowId> out;
  FindMoreSpecificRows(snap, r, {a, b}, /*exclude_equal=*/false, &out);
  ASSERT_EQ(out.size(), 1u);  // row 0 exactly once, row 1 filtered as stale
  EXPECT_EQ(out[0], w0[0].row);
}

TEST(SpecificityTest, TransitivityOnRandomTuples) {
  // Property sweep: specificity is transitive.
  Rng rng(7);
  auto random_tuple = [&](size_t arity) {
    TupleData t;
    for (size_t i = 0; i < arity; ++i) {
      if (rng.Chance(0.5)) {
        t.push_back(Value::Constant(rng.Uniform(3)));
      } else {
        t.push_back(Value::Null(rng.Uniform(3)));
      }
    }
    return t;
  };
  size_t checked = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const TupleData a = random_tuple(3);
    const TupleData b = random_tuple(3);
    const TupleData c = random_tuple(3);
    if (IsMoreSpecific(c, b) && IsMoreSpecific(b, a)) {
      ++checked;
      EXPECT_TRUE(IsMoreSpecific(c, a))
          << "transitivity violated at iter " << iter;
    }
  }
  EXPECT_GT(checked, 0u);
}

// Definition 2.4 taken literally: build f position by position and fail
// when it stops being a function or moves a constant.
bool ReferenceIsMoreSpecific(const TupleData& specific,
                             const TupleData& general) {
  if (specific.size() != general.size()) return false;
  std::unordered_map<Value, Value, ValueHash> f;
  for (size_t i = 0; i < general.size(); ++i) {
    if (general[i].is_constant()) {
      if (specific[i] != general[i]) return false;
      continue;
    }
    auto [it, inserted] = f.emplace(general[i], specific[i]);
    if (!inserted && it->second != specific[i]) return false;
  }
  return true;
}

TEST(SpecificityTest, MatchesMapBasedReferenceOnRandomTuples) {
  // Small constant and null pools make repeated nulls, shared values and
  // accidental matches common; one pair in eight mismatches in arity. The
  // `general` side is also derived from `specific` by generalizing
  // positions, so the true branch is exercised at every arity.
  Rng rng(20260417);
  auto random_value = [&]() {
    return rng.Chance(0.5) ? Value::Constant(rng.Uniform(3))
                           : Value::Null(rng.Uniform(4));
  };
  auto random_tuple = [&](size_t arity) {
    TupleData t;
    for (size_t i = 0; i < arity; ++i) t.push_back(random_value());
    return t;
  };
  size_t agree_true = 0;
  size_t agree_false = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const size_t arity = rng.Uniform(9);  // 0..8
    const TupleData specific = random_tuple(arity);
    TupleData general;
    if (rng.Chance(0.5)) {
      general = specific;
      for (Value& v : general) {
        if (rng.Chance(0.4)) v = Value::Null(rng.Uniform(4));
      }
    } else {
      general = random_tuple(arity);
    }
    if (rng.Chance(0.125)) {
      if (rng.Chance(0.5) || general.empty()) {
        general.push_back(random_value());
      } else {
        general.pop_back();
      }
    }
    const bool expected = ReferenceIsMoreSpecific(specific, general);
    ASSERT_EQ(IsMoreSpecific(specific, general), expected)
        << "iter " << iter << " arity " << arity;
    ++(expected ? agree_true : agree_false);
  }
  EXPECT_GT(agree_true, 1000u);
  EXPECT_GT(agree_false, 1000u);
}

TEST(FindMoreSpecificTest, UsesConstantColumnIndex) {
  testing_util::Figure2 fig;
  Snapshot snap(&fig.db, kReadLatest);
  // Generated tuple R(ABC, Niagara Falls, z): nothing more specific (the x1
  // row has a different company pattern... x1 is a null, so R(x1, Niagara
  // Falls, x2) is NOT more specific than a tuple with constant ABC).
  const TupleData probe{fig.Const("ABC"), fig.Const("Niagara Falls"),
                        fig.db.FreshNull()};
  std::vector<RowId> rows;
  FindMoreSpecificRows(snap, fig.R, probe, /*exclude_equal=*/false, &rows);
  EXPECT_TRUE(rows.empty());
}

TEST(FindMoreSpecificTest, FindsCandidatesForGeneralTuple) {
  testing_util::Figure2 fig;
  Snapshot snap(&fig.db, kReadLatest);
  // C(x) is generalized by every city.
  const TupleData probe{fig.db.FreshNull()};
  std::vector<RowId> rows;
  FindMoreSpecificRows(snap, fig.C, probe, /*exclude_equal=*/false, &rows);
  EXPECT_EQ(rows.size(), 2u);
}

TEST(FindMoreSpecificTest, ExcludeEqualSkipsExactCopy) {
  testing_util::Figure2 fig;
  Snapshot snap(&fig.db, kReadLatest);
  const TupleData probe = fig.Row({"Ithaca"});
  std::vector<RowId> with_equal;
  std::vector<RowId> without_equal;
  FindMoreSpecificRows(snap, fig.C, probe, false, &with_equal);
  FindMoreSpecificRows(snap, fig.C, probe, true, &without_equal);
  EXPECT_EQ(with_equal.size(), 1u);
  EXPECT_TRUE(without_equal.empty());
}

TEST(FindMoreSpecificTest, ReportsExactCopyFromTheSamePass) {
  testing_util::Figure2 fig;
  Snapshot snap(&fig.db, kReadLatest);
  std::vector<RowId> rows;
  EXPECT_TRUE(FindMoreSpecificRows(snap, fig.C, fig.Row({"Ithaca"}), false,
                                   &rows));
  EXPECT_EQ(rows.size(), 1u);  // the copy itself is more specific
  // A general tuple matches both cities, neither of them exactly.
  rows.clear();
  EXPECT_FALSE(
      FindMoreSpecificRows(snap, fig.C, {fig.db.FreshNull()}, false, &rows));
  EXPECT_EQ(rows.size(), 2u);
  // With exclude_equal the copy is still reported through the return value.
  rows.clear();
  EXPECT_TRUE(
      FindMoreSpecificRows(snap, fig.C, fig.Row({"Ithaca"}), true, &rows));
  EXPECT_TRUE(rows.empty());
}

TEST(FindMoreSpecificTest, AnyMoreSpecificRowAgreesWithTheFullQuery) {
  testing_util::Figure2 fig;
  Snapshot snap(&fig.db, kReadLatest);
  const TupleData probes[] = {
      {fig.db.FreshNull()},  // all-null: the scan path
      fig.Row({"Ithaca"}),   // an exact copy
      {fig.Const("ABC"), fig.Const("Niagara Falls"), fig.db.FreshNull()},
  };
  const RelationId rels[] = {fig.C, fig.C, fig.R};
  for (size_t i = 0; i < 3; ++i) {
    std::vector<RowId> rows;
    FindMoreSpecificRows(snap, rels[i], probes[i], false, &rows);
    EXPECT_EQ(AnyMoreSpecificRow(snap, rels[i], probes[i]), !rows.empty())
        << "probe " << i;
  }
  // Visibility applies: after both cities are deleted, nothing matches.
  for (const char* city : {"Ithaca", "Syracuse"}) {
    const RowId row = *fig.db.FindRowWithData(fig.C, fig.Row({city}), 0);
    fig.db.Apply(WriteOp::Delete(fig.C, row), 5);
  }
  EXPECT_FALSE(AnyMoreSpecificRow(Snapshot(&fig.db, 5), fig.C,
                                  {fig.db.FreshNull()}));
  EXPECT_TRUE(AnyMoreSpecificRow(Snapshot(&fig.db, 4), fig.C,
                                 {fig.db.FreshNull()}));
}

TEST(FindMoreSpecificTest, RespectsVisibility) {
  testing_util::Figure2 fig;
  const RowId row = *fig.db.FindRowWithData(fig.C, fig.Row({"Ithaca"}), 0);
  fig.db.Apply(WriteOp::Delete(fig.C, row), 5);
  const TupleData probe{fig.db.FreshNull()};
  std::vector<RowId> rows;
  Snapshot snap(&fig.db, 5);
  FindMoreSpecificRows(snap, fig.C, probe, false, &rows);
  EXPECT_EQ(rows.size(), 1u);  // only Syracuse remains
}

}  // namespace
}  // namespace youtopia
