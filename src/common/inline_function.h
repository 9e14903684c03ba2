// Move-only `void()` callable with small-buffer optimization.
//
// The simulation kernel schedules tens of millions of callbacks per run;
// std::function heap-allocates any capture larger than two pointers, which
// made the allocator the hottest symbol in every profile. InlineFunction
// stores captures up to kInlineBytes in place (sized to fit the engine's
// hot callbacks: a few pointers plus counters) and falls back to a single
// heap allocation for anything larger. Dispatch goes through one static
// ops table per callable type instead of a vtable. Trivially copyable
// captures (and the pointer of an out-of-line one) relocate with a memcpy
// and trivially destructible ones skip the destroy call, so moving a
// typical callback through the kernel costs no indirect call.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/slab.h"

namespace whale {

class InlineFunction {
 public:
  static constexpr size_t kInlineBytes = 48;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<Fn, InlineFunction> &&
                !std::is_same_v<Fn, std::nullptr_t> &&
                std::is_invocable_r_v<void, Fn&>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    init(std::forward<F>(f));
  }

  // Constructs a callable directly into this object, replacing the current
  // one. Lets containers (the kernel's slab) skip the construct-then-move
  // of assigning a fresh InlineFunction. Accepts InlineFunction itself and
  // nullptr so forwarding call sites need no special cases.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, InlineFunction>) {
      *this = std::forward<F>(f);
    } else if constexpr (std::is_same_v<Fn, std::nullptr_t>) {
      reset();
    } else {
      reset();
      init(std::forward<F>(f));
    }
  }

  // The move constructor, reset() and relocate_from() are forced inline:
  // they sit on every event's path and are a few instructions once
  // inlined, but GCC outlines them.
  [[gnu::always_inline]] InlineFunction(InlineFunction&& other) noexcept
      : ops_(other.ops_) {
    if (ops_) relocate_from(other);
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_) relocate_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ && "invoking an empty InlineFunction");
    ops_->invoke(storage_);
  }

  [[gnu::always_inline]] void reset() {
    if (ops_) {
      if (ops_->destroy) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  // Precondition: ops_ == other.ops_ != nullptr. Leaves `other` empty.
  [[gnu::always_inline]] void relocate_from(InlineFunction& other) {
    if (ops_->relocate) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }

  template <typename F, typename Fn = std::decay_t<F>>
  void init(F&& f) {
    static_assert(std::is_invocable_r_v<void, Fn&>);
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else if constexpr (alignof(Fn) <= alignof(std::max_align_t)) {
      // Oversized capture: one recycled slab block instead of a fresh
      // heap allocation (the engine's fattest continuations land here).
      void* p = slab_alloc(sizeof(Fn));
      ::new (p) Fn(std::forward<F>(f));
      ::new (static_cast<void*>(storage_)) Fn*(static_cast<Fn*>(p));
      ops_ = &kSlabOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs *dst from *src and destroys *src; null when a
    // memcpy of the storage does the same.
    void (*relocate)(void* dst, void* src);
    // Null when destruction is a no-op.
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*static_cast<Fn*>(self))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) {
              ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
              static_cast<Fn*>(src)->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* self) { static_cast<Fn*>(self)->~Fn(); },
  };

  // Out-of-line captures: storage_ holds only the pointer, so relocation
  // is a memcpy.
  template <typename Fn>
  static constexpr Ops kSlabOps = {
      [](void* self) { (**static_cast<Fn**>(self))(); },
      nullptr,
      [](void* self) {
        Fn* p = *static_cast<Fn**>(self);
        p->~Fn();
        slab_free(p, sizeof(Fn));
      },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* self) { (**static_cast<Fn**>(self))(); },
      nullptr,
      [](void* self) { delete *static_cast<Fn**>(self); },
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

}  // namespace whale
