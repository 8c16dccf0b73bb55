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

void FindMoreSpecificRows(const Snapshot& snap, RelationId rel,
                          const TupleData& data, bool exclude_equal,
                          std::vector<RowId>* out,
                          std::vector<RowId>* candidates) {
  // If the tuple has a constant position, candidates must agree there
  // (f is the identity on constants), so the column index applies.
  int const_col = -1;
  for (size_t i = 0; i < data.size(); ++i) {
    if (data[i].is_constant()) {
      const_col = static_cast<int>(i);
      break;
    }
  }
  auto consider = [&](RowId row, const TupleData& stored) {
    if (exclude_equal && stored == data) return;
    if (IsMoreSpecific(stored, data)) out->push_back(row);
  };
  if (const_col >= 0) {
    candidates->clear();  // deduped by CandidateRows
    snap.CandidateRows(rel, static_cast<size_t>(const_col),
                       data[static_cast<size_t>(const_col)], candidates);
    for (RowId row : *candidates) {
      const TupleData* stored = snap.VisibleData(rel, row);
      if (stored != nullptr) consider(row, *stored);
    }
  } else {
    // All-null tuple: every row is a potential match; scan.
    snap.ForEachVisible(
        rel, [&](RowId row, const TupleData& stored) { consider(row, stored); });
  }
}

}  // namespace youtopia
