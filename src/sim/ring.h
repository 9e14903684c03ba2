// Power-of-two ring deque.
//
// push_back/pop_front FIFO over a single contiguous slab, indexed with a
// mask instead of modulo. Capacity grows lazily (geometric, starting small)
// so the thousands of per-task queues the engine creates cost nothing until
// they actually hold items — unlike std::deque, which allocates its map and
// first chunk up front and then churns chunks at every boundary crossing.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace whale::sim {

template <typename T>
class Ring {
 public:
  Ring() = default;

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  Ring(Ring&& other) noexcept { swap(other); }
  Ring& operator=(Ring&& other) noexcept {
    if (this != &other) {
      destroy();
      swap(other);
    }
    return *this;
  }

  ~Ring() { destroy(); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return cap_; }

  void push_back(T&& item) { emplace_back(std::move(item)); }
  void push_back(const T& item) { emplace_back(item); }

  T pop_front() {
    assert(size_ > 0);
    T* slot = slots_ + head_;
    T item = std::move(*slot);
    std::destroy_at(slot);
    head_ = (head_ + 1) & mask_;
    --size_;
    return item;
  }

  T& front() {
    assert(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    assert(size_ > 0);
    return slots_[head_];
  }

  // Destroys every item and releases the slab, back to the zero-byte state.
  void clear() { destroy(); }

  // Read-only front-to-back traversal (FIFO order).
  class const_iterator {
   public:
    const_iterator(const Ring* ring, size_t i) : ring_(ring), i_(i) {}
    const T& operator*() const {
      return ring_->slots_[(ring_->head_ + i_) & ring_->mask_];
    }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const Ring* ring_;
    size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  static constexpr size_t kMinCapacity = 8;

  // Constructs the new item straight into its slot. When the ring must
  // grow first, the item is built before the old slots move, so pushing
  // one of this ring's own items stays safe.
  template <typename U>
  void emplace_back(U&& item) {
    if (size_ == cap_) {
      T grown(std::forward<U>(item));
      grow(cap_ ? cap_ * 2 : kMinCapacity);
      std::construct_at(slots_ + size_, std::move(grown));
    } else {
      std::construct_at(slots_ + ((head_ + size_) & mask_),
                        std::forward<U>(item));
    }
    ++size_;
  }

  void grow(size_t want) {
    size_t ncap = kMinCapacity;
    while (ncap < want) ncap *= 2;
    T* nslots = std::allocator<T>().allocate(ncap);
    for (size_t i = 0; i < size_; ++i) {
      T* src = slots_ + ((head_ + i) & mask_);
      std::construct_at(nslots + i, std::move(*src));
      std::destroy_at(src);
    }
    if (slots_) std::allocator<T>().deallocate(slots_, cap_);
    slots_ = nslots;
    cap_ = ncap;
    mask_ = ncap - 1;
    head_ = 0;
  }

  void destroy() {
    for (size_t i = 0; i < size_; ++i) {
      std::destroy_at(slots_ + ((head_ + i) & mask_));
    }
    if (slots_) std::allocator<T>().deallocate(slots_, cap_);
    slots_ = nullptr;
    cap_ = mask_ = head_ = size_ = 0;
  }

  void swap(Ring& other) {
    std::swap(slots_, other.slots_);
    std::swap(cap_, other.cap_);
    std::swap(mask_, other.mask_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
  }

  T* slots_ = nullptr;
  size_t cap_ = 0;
  size_t mask_ = 0;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace whale::sim
