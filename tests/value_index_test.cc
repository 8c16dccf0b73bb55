// ValueIndex against a std::unordered_map reference: seeded insert / erase /
// find runs, hand-built clusters that wrap around the end of the table,
// erasure from the middle of a cluster, and growth.
#include "relational/value_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace youtopia {
namespace {

// Home slot of `v` in a table of `capacity` slots (the documented formula).
size_t HomeSlot(const Value& v, size_t capacity) {
  int bits = 0;
  while ((size_t{1} << bits) < capacity) ++bits;
  return static_cast<size_t>((v.bits() * ValueIndex::kHashMultiplier) >>
                             (64 - bits));
}

// The first `n` constants whose home slot in an 8-slot table is `slot`.
std::vector<Value> ConstantsHomedAt(size_t slot, size_t n) {
  std::vector<Value> out;
  for (uint64_t id = 0; out.size() < n; ++id) {
    if (HomeSlot(Value::Constant(id), 8) == slot) {
      out.push_back(Value::Constant(id));
    }
  }
  return out;
}

using Reference = std::unordered_map<Value, std::vector<RowId>, ValueHash>;

// The index holds exactly the reference's entries: every lookup agrees, and
// one in-order pass visits each entry once.
void ExpectSameContents(const ValueIndex& index, const Reference& ref) {
  ASSERT_EQ(index.size(), ref.size());
  for (const auto& [value, rows] : ref) {
    const ValueIndex::Bucket* bucket = index.Find(value);
    ASSERT_NE(bucket, nullptr) << "id " << value.id();
    EXPECT_EQ(*bucket, rows) << "id " << value.id();
  }
  size_t visited = 0;
  index.ForEach([&](const Value& value, const ValueIndex::Bucket& rows) {
    ++visited;
    auto it = ref.find(value);
    ASSERT_NE(it, ref.end()) << "id " << value.id();
    EXPECT_EQ(rows, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(ValueIndexTest, EmptyIndexFindsNothing) {
  ValueIndex index;
  EXPECT_EQ(index.capacity(), 0u);
  EXPECT_EQ(index.Find(Value::Constant(0)), nullptr);
  EXPECT_FALSE(index.Erase(Value::Null(3)));
  size_t visited = 0;
  index.ForEach([&](const Value&, const ValueIndex::Bucket&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(ValueIndexTest, ConstantAndNullWithSameIdAreDistinctKeys) {
  ValueIndex index;
  index.FindOrInsert(Value::Constant(5)).push_back(1);
  index.FindOrInsert(Value::Null(5)).push_back(2);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(*index.Find(Value::Constant(5)), std::vector<RowId>{1});
  EXPECT_EQ(*index.Find(Value::Null(5)), std::vector<RowId>{2});
}

TEST(ValueIndexTest, ClusterWrapsAroundTheTableEnd) {
  // Four keys homed at the last slot of an 8-slot table occupy slots 7, 0,
  // 1, 2; a key homed at slot 0 must probe past the wrapped ones.
  const std::vector<Value> tail = ConstantsHomedAt(7, 4);
  const Value head = ConstantsHomedAt(0, 1)[0];
  ValueIndex index;
  Reference ref;
  RowId row = 0;
  for (const Value& v : tail) {
    index.FindOrInsert(v).push_back(row);
    ref[v].push_back(row++);
  }
  index.FindOrInsert(head).push_back(row);
  ref[head].push_back(row++);
  ASSERT_EQ(index.capacity(), 8u) << "the case needs the 8-slot table";
  ExpectSameContents(index, ref);
  // Slot order: the wrapped keys come first, the key homed at 7 last.
  std::vector<Value> order;
  index.ForEach([&](const Value& v, const ValueIndex::Bucket&) {
    order.push_back(v);
  });
  EXPECT_EQ(order, (std::vector<Value>{tail[1], tail[2], tail[3], head,
                                       tail[0]}));

  // Erasing the cluster's first member shifts every wrapped member back,
  // across the table end.
  EXPECT_TRUE(index.Erase(tail[0]));
  ref.erase(tail[0]);
  ExpectSameContents(index, ref);
  // A key absent from a cluster that wraps is still a clean miss.
  EXPECT_EQ(index.Find(tail[0]), nullptr);
  EXPECT_FALSE(index.Erase(tail[0]));
}

TEST(ValueIndexTest, EraseInsideClusterKeepsLaterMembersReachable) {
  // Keys homed at slots 2, 2, 3, 2 fill slots 2..5; erasing the second
  // leaves a hole that the members behind it (one homed at 3, one at 2)
  // must be shifted over.
  const std::vector<Value> at2 = ConstantsHomedAt(2, 3);
  const Value at3 = ConstantsHomedAt(3, 1)[0];
  ValueIndex index;
  Reference ref;
  for (const Value& v : {at2[0], at2[1], at3, at2[2]}) {
    index.FindOrInsert(v).push_back(static_cast<RowId>(v.id()));
    ref[v].push_back(static_cast<RowId>(v.id()));
  }
  ASSERT_EQ(index.capacity(), 8u);
  EXPECT_TRUE(index.Erase(at2[1]));
  ref.erase(at2[1]);
  ExpectSameContents(index, ref);
  EXPECT_TRUE(index.Erase(at2[0]));
  ref.erase(at2[0]);
  ExpectSameContents(index, ref);
}

TEST(ValueIndexTest, GrowthKeepsEveryBucket) {
  ValueIndex index;
  Reference ref;
  size_t last_capacity = 0;
  for (uint64_t id = 0; id < 5000; ++id) {
    const Value v = id % 3 == 0 ? Value::Null(id) : Value::Constant(id * 7);
    index.FindOrInsert(v).push_back(static_cast<RowId>(id));
    ref[v].push_back(static_cast<RowId>(id));
    if (index.capacity() != last_capacity) {
      ExpectSameContents(index, ref);
      last_capacity = index.capacity();
    }
    EXPECT_LE(index.size() * 4, index.capacity() * 3);
  }
  ExpectSameContents(index, ref);
  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(Value::Constant(7)), nullptr);
}

class ValueIndexDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ValueIndexDifferentialTest, MatchesUnorderedMap) {
  // A small key domain keeps the table dense with erasures and re-inserts,
  // so clusters form, wrap and are shifted repeatedly.
  Rng rng(GetParam());
  const uint64_t domain = 16 + rng.Uniform(200);
  ValueIndex index;
  Reference ref;
  auto random_value = [&] {
    const uint64_t id = rng.Uniform(domain);
    return rng.Uniform(4) == 0 ? Value::Null(id) : Value::Constant(id);
  };
  for (int op = 0; op < 4000; ++op) {
    const Value v = random_value();
    const uint64_t dice = rng.Uniform(10);
    if (dice < 5) {
      const RowId row = static_cast<RowId>(op);
      index.FindOrInsert(v).push_back(row);
      ref[v].push_back(row);
    } else if (dice < 8) {
      EXPECT_EQ(index.Erase(v), ref.erase(v) == 1) << "id " << v.id();
    } else {
      const ValueIndex::Bucket* bucket = index.Find(v);
      auto it = ref.find(v);
      if (it == ref.end()) {
        EXPECT_EQ(bucket, nullptr) << "id " << v.id();
      } else {
        ASSERT_NE(bucket, nullptr) << "id " << v.id();
        EXPECT_EQ(*bucket, it->second);
      }
    }
    if (op % 97 == 0) ExpectSameContents(index, ref);
  }
  ExpectSameContents(index, ref);
  // Drain: every erase on the way down keeps the rest reachable.
  std::vector<Value> keys;
  for (const auto& [value, rows] : ref) keys.push_back(value);
  std::sort(keys.begin(), keys.end());
  for (const Value& v : keys) {
    EXPECT_TRUE(index.Erase(v));
    ref.erase(v);
    if (ref.size() % 13 == 0) ExpectSameContents(index, ref);
  }
  EXPECT_EQ(index.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueIndexDifferentialTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace youtopia
