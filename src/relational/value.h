#ifndef YOUTOPIA_RELATIONAL_VALUE_H_
#define YOUTOPIA_RELATIONAL_VALUE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/check.h"
#include "util/hash.h"

namespace youtopia {

// A database value is either a constant or a labeled null (the paper's
// "variables" x1, x2, ...). Constants are interned symbols; a Value packs
// its kind and id into one machine word (kind in the top bit, id below it),
// so tuples, binding slots and index keys are one word per value, and
// equality and ordering are a single integer compare.
enum class ValueKind : uint8_t { kConstant = 0, kNull = 1 };

class Value {
 public:
  // Ids occupy the low 63 bits. The all-ones word (the null with the largest
  // id) is reserved as the empty-slot marker of ValueIndex, so ids stay
  // strictly below kMaxId.
  static constexpr uint64_t kMaxId = (uint64_t{1} << 63) - 1;

  // Default-constructed value is the invalid constant; only useful as a
  // placeholder before assignment.
  constexpr Value() : bits_(0) {}

  static constexpr Value Constant(uint64_t symbol_id) {
    return Value(ValueKind::kConstant, symbol_id);
  }
  static constexpr Value Null(uint64_t null_id) {
    return Value(ValueKind::kNull, null_id);
  }
  // The value whose packed word is `bits` (the inverse of bits()).
  static constexpr Value FromBits(uint64_t bits) { return Value(bits); }

  constexpr ValueKind kind() const {
    return static_cast<ValueKind>(bits_ >> 63);
  }
  constexpr bool is_constant() const { return (bits_ >> 63) == 0; }
  constexpr bool is_null() const { return (bits_ >> 63) != 0; }
  constexpr uint64_t id() const { return bits_ & kMaxId; }
  // The packed word: kind << 63 | id.
  constexpr uint64_t bits() const { return bits_; }

  friend bool operator==(const Value& a, const Value& b) {
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  // Constants before nulls, then by id: the packed word's integer order.
  friend bool operator<(const Value& a, const Value& b) {
    return a.bits_ < b.bits_;
  }

 private:
  constexpr explicit Value(uint64_t bits) : bits_(bits) {}
  constexpr Value(ValueKind kind, uint64_t id)
      : bits_(static_cast<uint64_t>(kind) << 63 | id) {
    DCHECK(id < kMaxId);
  }

  uint64_t bits_;
};

static_assert(sizeof(Value) == 8, "a Value is one machine word");

struct ValueHash {
  size_t operator()(const Value& v) const {
    size_t seed = static_cast<size_t>(v.kind());
    HashCombine(seed, static_cast<size_t>(v.id()));
    return seed;
  }
};

// Interns constant strings into dense symbol ids. Owned by the Database;
// lookups are by string_view, stored strings are stable for the table's
// lifetime.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // Returns the constant Value for `text`, interning it if new.
  Value Intern(std::string_view text);

  // Returns the text of an interned constant. The Value must be a constant
  // produced by this table.
  std::string_view Text(const Value& v) const;

  size_t size() const { return strings_.size(); }

 private:
  // Deque keeps string objects at stable addresses, so the map's
  // string_view keys stay valid as the table grows.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, uint64_t> ids_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_RELATIONAL_VALUE_H_
