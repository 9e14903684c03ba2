// The tuple: the unit of data flowing through a topology.
//
// Matches Storm's model: a tuple is a list of dynamically typed values
// produced on a named stream by a task. Metadata carries the identity of
// the *root* tuple (the spout emission it descends from) so the engine can
// measure end-to-end processing latency and multicast completion.
#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/buffer.h"
#include "common/slab.h"
#include "common/time.h"

namespace whale::dsps {

namespace detail {
// std::variant's converting-constructor rule (C++20): an alternative Ti
// accepts a T only if `Ti x[] = {std::forward<T>(t)}` is well-formed,
// i.e. the conversion does not narrow.
template <typename T, typename Ti>
concept NonNarrowing = requires(T&& t) {
  std::type_identity_t<Ti[]>{std::forward<T>(t)};
};
}  // namespace detail

// A dynamically typed tuple field: int64_t, double or string, in 16 bytes.
// Scalars sit inline; a string lives out of line in one slab block, so a
// four-scalar tuple's value array fits the slab's 64-byte class. It keeps
// the observable behaviour of std::variant<int64_t, double, std::string>:
// the same accepted constructions, index() 0/1/2, == with double semantics
// across equal kinds, and std::bad_variant_access from a wrong-kind as_*().
class Value {
 public:
  enum Kind : uint8_t { kInt = 0, kDouble = 1, kString = 2 };

  Value() noexcept : i_(0), kind_(kInt) {}

  // One converting constructor per alternative, each enabled only when it
  // is the single non-narrowing target of T.
  template <typename T>
    requires detail::NonNarrowing<T, int64_t> &&
             (!detail::NonNarrowing<T, double>) &&
             (!detail::NonNarrowing<T, std::string>)
  Value(T&& v) noexcept  // NOLINT(google-explicit-constructor)
      : i_(static_cast<int64_t>(v)), kind_(kInt) {}

  template <typename T>
    requires detail::NonNarrowing<T, double> &&
             (!detail::NonNarrowing<T, int64_t>) &&
             (!detail::NonNarrowing<T, std::string>)
  Value(T&& v) noexcept  // NOLINT(google-explicit-constructor)
      : d_(static_cast<double>(v)), kind_(kDouble) {}

  template <typename T>
    requires detail::NonNarrowing<T, std::string> &&
             (!detail::NonNarrowing<T, int64_t>) &&
             (!detail::NonNarrowing<T, double>)
  Value(T&& v)  // NOLINT(google-explicit-constructor)
      : s_(new_string(std::forward<T>(v))), kind_(kString) {}

  Value(const Value& o) : kind_(o.kind_) {
    if (o.kind_ == kString) {
      s_ = o.s_ ? new_string(*o.s_) : nullptr;
    } else {
      std::memcpy(&i_, &o.i_, sizeof(i_));
    }
  }
  // A moved-from string keeps index() 2 and reads as "" (null pointer),
  // as a moved-from std::string alternative would.
  Value(Value&& o) noexcept : kind_(o.kind_) { steal(o); }

  Value& operator=(const Value& o) {
    if (this != &o) *this = Value(o);
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      reset();
      kind_ = o.kind_;
      steal(o);
    }
    return *this;
  }
  ~Value() { reset(); }

  size_t index() const noexcept { return kind_; }

  int64_t as_int() const {
    if (kind_ != kInt) throw std::bad_variant_access();
    return i_;
  }
  double as_double() const {
    if (kind_ != kDouble) throw std::bad_variant_access();
    return d_;
  }
  const std::string& as_string() const {
    if (kind_ != kString) throw std::bad_variant_access();
    return s_ ? *s_ : empty_string();
  }

  friend bool operator==(const Value& a, const Value& b) {
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
      case kInt: return a.i_ == b.i_;
      case kDouble: return a.d_ == b.d_;
      default: return a.as_string() == b.as_string();
    }
  }

 private:
  template <typename S>
  static std::string* new_string(S&& s) {
    return new (slab_alloc(sizeof(std::string)))
        std::string(std::forward<S>(s));
  }
  static const std::string& empty_string() {
    static const std::string empty;
    return empty;
  }

  // Takes o's payload (kind_ already copied); o keeps its kind.
  void steal(Value& o) noexcept {
    std::memcpy(&i_, &o.i_, sizeof(i_));
    if (o.kind_ == kString) o.s_ = nullptr;
  }
  void reset() noexcept {
    if (kind_ == kString && s_) {
      s_->~basic_string();
      slab_free(s_, sizeof(std::string));
    }
  }

  union {
    int64_t i_;
    double d_;
    std::string* s_;
  };
  uint8_t kind_;
};
static_assert(sizeof(Value) == 16);

// Tuples are created and destroyed at event rate; backing the values
// vector with the slab pool makes steady-state tuple churn allocation-free
// (typical tuples hold 3-4 values, well inside one slab class).
using Values = std::vector<Value, SlabAllocator<Value>>;

struct Tuple {
  Values values;

  // --- metadata (serialized in the header) ---
  uint32_t stream = 0;      // index of the StreamSpec this tuple rides on
  uint64_t root_id = 0;     // id of the spout tuple this one descends from
  Time root_emit_time = 0;  // simulated time the root left the spout

  Tuple() = default;
  explicit Tuple(Values v) : values(std::move(v)) {}

  int64_t as_int(size_t i) const { return values[i].as_int(); }
  double as_double(size_t i) const { return values[i].as_double(); }
  const std::string& as_string(size_t i) const {
    return values[i].as_string();
  }

  // Approximate in-memory payload size; the authoritative size is the
  // serialized form (serde.h), this is only for pre-sizing buffers.
  size_t approx_bytes() const {
    size_t n = 0;
    for (const auto& v : values) {
      if (v.index() == Value::kString) {
        n += v.as_string().size() + 1;
      } else {
        n += 9;
      }
    }
    return n;
  }
};

// Shared immutable tuple: a one-pointer handle on a slab block holding
// {refcount, Tuple}. The dispatcher decodes a tuple once and hands the same
// block to every local executor; each queued copy costs 8 bytes and a
// plain increment.
class TupleRef {
 public:
  TupleRef() = default;
  explicit TupleRef(Tuple t)
      : b_(new (slab_alloc(sizeof(Block))) Block{1, std::move(t)}) {}

  TupleRef(const TupleRef& o) noexcept : b_(o.b_) {
    if (b_) ++b_->refs;
  }
  TupleRef(TupleRef&& o) noexcept : b_(o.b_) { o.b_ = nullptr; }
  TupleRef& operator=(const TupleRef& o) noexcept {
    if (this != &o) {
      drop();
      b_ = o.b_;
      if (b_) ++b_->refs;
    }
    return *this;
  }
  TupleRef& operator=(TupleRef&& o) noexcept {
    if (this != &o) {
      drop();
      b_ = o.b_;
      o.b_ = nullptr;
    }
    return *this;
  }
  ~TupleRef() { drop(); }

  explicit operator bool() const { return b_ != nullptr; }
  const Tuple& operator*() const { return b_->tuple; }
  const Tuple* operator->() const { return &b_->tuple; }
  const Tuple* get() const { return b_ ? &b_->tuple : nullptr; }
  uint32_t use_count() const { return b_ ? b_->refs : 0; }

 private:
  struct Block {
    uint32_t refs;
    Tuple tuple;
  };

  void drop() {
    if (b_ && --b_->refs == 0) {
      b_->~Block();
      slab_free(b_, sizeof(Block));
    }
    b_ = nullptr;
  }

  Block* b_ = nullptr;
};
static_assert(sizeof(TupleRef) == 8);

}  // namespace whale::dsps
