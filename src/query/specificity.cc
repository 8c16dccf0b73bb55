#include "query/specificity.h"

namespace youtopia {

bool IsMoreSpecific(const TupleData& specific, const TupleData& general) {
  if (specific.size() != general.size()) return false;
  // f is a function iff every repeat of a null in `general` maps to the
  // value its first occurrence maps to; comparing each position against
  // that first occurrence decides it without building f. Tuples are a few
  // columns wide, so the quadratic back-scan beats any hashing.
  const size_t n = general.size();
  for (size_t i = 0; i < n; ++i) {
    const Value& g = general[i];
    if (g.is_constant()) {
      // f must be the identity on constants.
      if (specific[i] != g) return false;
      continue;
    }
    for (size_t j = 0; j < i; ++j) {
      if (general[j] == g) {
        if (specific[j] != specific[i]) return false;  // not a function
        break;
      }
    }
  }
  return true;
}

namespace {

// Invokes fn(row, stored) for every visible row of `rel` whose content is
// more specific than `data`, in ascending row order, until fn returns false.
template <typename Fn>
void ForEachMoreSpecific(const Snapshot& snap, RelationId rel,
                         const TupleData& data, Fn&& fn) {
  // Candidates must agree with every constant position (f is the identity
  // on constants), so the smallest constant column's bucket suffices; a
  // constant no stored content carries rules every row out. Nothing writes
  // during the walk, so the bucket is read in place.
  const std::vector<RowId>* cheapest = nullptr;
  for (size_t i = 0; i < data.size(); ++i) {
    if (!data[i].is_constant()) continue;
    const std::vector<RowId>* bucket = snap.FindBucket(rel, i, data[i]);
    if (bucket == nullptr) return;
    if (cheapest == nullptr || bucket->size() < cheapest->size()) {
      cheapest = bucket;
    }
  }
  if (cheapest != nullptr) {
    for (RowId row : *cheapest) {
      const TupleData* stored = snap.VisibleData(rel, row);
      if (stored != nullptr && IsMoreSpecific(*stored, data) &&
          !fn(row, *stored)) {
        return;
      }
    }
    return;
  }
  // All-null tuple: every row is a potential match; scan.
  snap.ForEachVisible(rel, [&](RowId row, const TupleData& stored) -> bool {
    return !IsMoreSpecific(stored, data) || fn(row, stored);
  });
}

}  // namespace

bool FindMoreSpecificRows(const Snapshot& snap, RelationId rel,
                          const TupleData& data, bool exclude_equal,
                          std::vector<RowId>* out) {
  bool exact = false;
  ForEachMoreSpecific(snap, rel, data,
                      [&](RowId row, const TupleData& stored) {
                        if (stored == data) {
                          exact = true;
                          if (exclude_equal) return true;
                        }
                        out->push_back(row);
                        return true;
                      });
  return exact;
}

bool AnyMoreSpecificRow(const Snapshot& snap, RelationId rel,
                        const TupleData& data) {
  bool found = false;
  ForEachMoreSpecific(snap, rel, data, [&](RowId, const TupleData&) {
    found = true;
    return false;
  });
  return found;
}

}  // namespace youtopia
