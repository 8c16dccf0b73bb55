#ifndef YOUTOPIA_QUERY_SPECIFICITY_H_
#define YOUTOPIA_QUERY_SPECIFICITY_H_

#include <vector>

#include "relational/database.h"
#include "relational/tuple.h"

namespace youtopia {

// Definition 2.4 (Specificity Relation). `specific` is more specific than
// `general` iff the positionwise map f(general[i]) = specific[i] is a
// well-defined function and is the identity on constants. Intuitively,
// `specific` can be obtained from `general` by consistently substituting
// values for labeled nulls. Every tuple is more specific than itself.
bool IsMoreSpecific(const TupleData& specific, const TupleData& general);

// The paper's correction query "find any t' in R more specific than t":
// appends every visible row of `rel` whose content is more specific than
// `data`, in ascending row order (excluding rows whose content is literally
// equal when `exclude_equal` is set, used when the tuple itself is already
// stored). Returns whether some visible row equals `data` (an exact copy),
// found in the same pass.
bool FindMoreSpecificRows(const Snapshot& snap, RelationId rel,
                          const TupleData& data, bool exclude_equal,
                          std::vector<RowId>* out);

// True iff some visible row of `rel` is more specific than `data`: the
// correction query asked only for emptiness, stopping at the first match.
bool AnyMoreSpecificRow(const Snapshot& snap, RelationId rel,
                        const TupleData& data);

}  // namespace youtopia

#endif  // YOUTOPIA_QUERY_SPECIFICITY_H_
