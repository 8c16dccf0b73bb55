#include "relational/value.h"

#include <gtest/gtest.h>

#include <vector>

#include "relational/tuple.h"

namespace youtopia {
namespace {

TEST(ValueTest, ConstantsAndNullsAreDistinct) {
  const Value c = Value::Constant(3);
  const Value n = Value::Null(3);
  EXPECT_TRUE(c.is_constant());
  EXPECT_FALSE(c.is_null());
  EXPECT_TRUE(n.is_null());
  EXPECT_NE(c, n);
  EXPECT_EQ(c.id(), n.id());
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value::Constant(1), Value::Constant(1));
  EXPECT_NE(Value::Constant(1), Value::Constant(2));
  EXPECT_LT(Value::Constant(1), Value::Constant(2));
  // Kind dominates the ordering.
  EXPECT_LT(Value::Constant(99), Value::Null(0));
}

TEST(ValueTest, HashDistinguishesKinds) {
  ValueHash h;
  EXPECT_NE(h(Value::Constant(7)), h(Value::Null(7)));
  EXPECT_EQ(h(Value::Null(7)), h(Value::Null(7)));
}

TEST(ValueTest, IsOneWord) { EXPECT_EQ(sizeof(Value), 8u); }

TEST(ValueTest, KindAndIdRoundTrip) {
  for (uint64_t id : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 32,
                      Value::kMaxId - 1}) {
    const Value c = Value::Constant(id);
    const Value n = Value::Null(id);
    EXPECT_EQ(c.kind(), ValueKind::kConstant);
    EXPECT_EQ(n.kind(), ValueKind::kNull);
    EXPECT_EQ(c.id(), id);
    EXPECT_EQ(n.id(), id);
    EXPECT_EQ(Value::FromBits(c.bits()), c);
    EXPECT_EQ(Value::FromBits(n.bits()), n);
  }
  EXPECT_EQ(Value(), Value::Constant(0));
}

TEST(ValueTest, OrderIsConstantsBeforeNullsThenId) {
  const std::vector<Value> ascending = {
      Value::Constant(0), Value::Constant(1), Value::Constant(1u << 20),
      Value::Constant(Value::kMaxId - 1), Value::Null(0), Value::Null(2),
      Value::Null(Value::kMaxId - 1)};
  for (size_t i = 0; i < ascending.size(); ++i) {
    for (size_t j = 0; j < ascending.size(); ++j) {
      EXPECT_EQ(ascending[i] < ascending[j], i < j) << i << " vs " << j;
      EXPECT_EQ(ascending[i] == ascending[j], i == j) << i << " vs " << j;
      EXPECT_EQ(ascending[i] != ascending[j], i != j) << i << " vs " << j;
    }
  }
}

TEST(ValueTest, HashIsPinned) {
  // Composite-key hashes and relation hot fingerprints are built from
  // ValueHash; it hashes (kind, id), independent of the packed layout.
  ValueHash h;
  EXPECT_EQ(h(Value::Constant(0)), size_t{0x9e3779b97f4a7c15ull});
  EXPECT_EQ(h(Value::Constant(7)), size_t{0x9e3779b97f4a7c1cull});
  EXPECT_EQ(h(Value::Null(7)), size_t{0x9e3779b97f4a7c5dull});
  EXPECT_EQ(h(Value::Null(123456789)), size_t{0x9e3779b986a6496bull});
  EXPECT_EQ(h(Value::Constant(Value::kMaxId - 1)),
            size_t{0x1e3779b97f4a7c13ull});
}

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  const Value a1 = table.Intern("Ithaca");
  const Value a2 = table.Intern("Ithaca");
  const Value b = table.Intern("Syracuse");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Text(a1), "Ithaca");
  EXPECT_EQ(table.Text(b), "Syracuse");
}

TEST(SymbolTableTest, ManySymbolsSurviveRehash) {
  SymbolTable table;
  std::vector<Value> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(table.Intern("sym" + std::to_string(i)));
  }
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(table.Text(values[static_cast<size_t>(i)]),
              "sym" + std::to_string(i));
    EXPECT_EQ(table.Intern("sym" + std::to_string(i)),
              values[static_cast<size_t>(i)]);
  }
}

TEST(TupleTest, ContainsNull) {
  const Value n1 = Value::Null(1);
  const Value n2 = Value::Null(2);
  const TupleData data{Value::Constant(0), n1};
  EXPECT_TRUE(ContainsNull(data, n1));
  EXPECT_FALSE(ContainsNull(data, n2));
  EXPECT_TRUE(ContainsAnyNull(data));
  EXPECT_FALSE(ContainsAnyNull({Value::Constant(0), Value::Constant(1)}));
}

TEST(TupleTest, ToStringRendersConstantsAndNulls) {
  SymbolTable table;
  const TupleData data{table.Intern("Ithaca"), Value::Null(3)};
  EXPECT_EQ(TupleToString(data, table), "(Ithaca, x3)");
}

}  // namespace
}  // namespace youtopia
