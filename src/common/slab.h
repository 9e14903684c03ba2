// Freelist pool for small fixed-lifetime blocks: continuation captures
// that outgrow InlineFunction's inline buffer, loop_async chain state,
// shared-tuple blocks (dsps::TupleRef), tuple value arrays. The engine churns hundreds of thousands of
// these per run, all of a handful of sizes — recycling them through
// per-size-class freelists makes steady-state continuation traffic
// allocation-free, the same trick BufferPool plays for message payloads.
//
// Callers know their block's size statically (sizeof(Fn)), so blocks
// carry no header: a freed block's first word becomes the freelist link.
// Like BufferPool, the pool is single-threaded.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace whale {

class SlabPool {
 public:
  // Classes: 64, 128, 256, 512 bytes. Larger blocks bypass the pool.
  static constexpr size_t kMinBlockLog = 6;
  static constexpr size_t kNumClasses = 4;
  static constexpr size_t kMaxBytes = 1u << (kMinBlockLog + kNumClasses - 1);

  static SlabPool& instance() {
    static SlabPool pool;
    return pool;
  }

  ~SlabPool() {
    for (Node* n : free_) {
      while (n) {
        Node* next = n->next;
        ::operator delete(n);
        n = next;
      }
    }
  }

  void* allocate(size_t n) {
    const size_t cls = class_for(n);
    if (Node* head = free_[cls]) {
      free_[cls] = head->next;
      return head;
    }
    return ::operator new(size_t{1} << (kMinBlockLog + cls));
  }

  void deallocate(void* p, size_t n) {
    const size_t cls = class_for(n);
    Node* node = static_cast<Node*>(p);
    node->next = free_[cls];
    free_[cls] = node;
  }

 private:
  struct Node {
    Node* next;
  };

  static size_t class_for(size_t n) {
    size_t cls = 0;
    while ((size_t{1} << (kMinBlockLog + cls)) < n) ++cls;
    return cls;
  }

  Node* free_[kNumClasses] = {};
};

// Pooled block for a type known at the call site; alignment beyond
// max_align_t falls through to the aligned global allocator (blocks come
// from plain operator new, which guarantees only max_align_t).
inline void* slab_alloc(size_t n) {
  if (n > SlabPool::kMaxBytes) return ::operator new(n);
  return SlabPool::instance().allocate(n);
}

inline void slab_free(void* p, size_t n) {
  if (n > SlabPool::kMaxBytes) {
    ::operator delete(p);
    return;
  }
  SlabPool::instance().deallocate(p, n);
}

// Minimal std allocator over the slab, for short-lived vectors (tuple
// value arrays, per-event id lists).
template <typename T>
struct SlabAllocator {
  using value_type = T;

  SlabAllocator() = default;
  template <typename U>
  SlabAllocator(const SlabAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    return static_cast<T*>(slab_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) { slab_free(p, n * sizeof(T)); }

  bool operator==(const SlabAllocator&) const { return true; }
  bool operator!=(const SlabAllocator&) const { return false; }
};

// Vector whose storage comes from the slab pool. For the short
// fixed-lifetime lists the engine builds per event (destination task ids,
// serialized-target lists), the backing array fits one slab class and is
// recycled instead of hitting the global allocator.
template <typename T>
using PooledVec = std::vector<T, SlabAllocator<T>>;

}  // namespace whale
