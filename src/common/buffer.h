// Reference-counted pooled byte buffers.
//
// Every framed message used to be a fresh shared_ptr<const vector<uint8_t>>
// — two heap allocations plus atomic refcounting per message, at millions
// of messages per run. A Buffer is one pointer to a pooled block holding
// {refcount, view bounds} followed by the bytes; copies bump a plain
// counter (the simulator is single-threaded by design) and blocks recycle
// through per-size-class freelists, so steady-state message traffic
// allocates nothing.
//
// PoolWriter encodes directly into a pooled block with the same put_* API
// as ByteWriter, optionally reserving headroom so an envelope header can be
// prepended in place afterwards — serialize once, frame in place, fan out
// by reference (the paper's WOC principle applied to the simulator).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace whale {

// Block layout: BufHeader | data[cap]. `off`/`len` delimit the view the
// owning Buffers expose (off > 0 after in-place header prepending).
struct alignas(16) BufHeader {
  uint32_t refs;
  uint32_t len;
  uint32_t cap;
  uint8_t cls;  // size-class index; kExactClass = malloc'd exactly, not pooled
  uint8_t off;
  uint8_t pad[2];

  uint8_t* data() { return reinterpret_cast<uint8_t*>(this + 1); }
  const uint8_t* data() const {
    return reinterpret_cast<const uint8_t*>(this + 1);
  }
};
static_assert(sizeof(BufHeader) == 16);

class BufferPool {
 public:
  static constexpr int kMinClassLog = 6;   // 64 B
  static constexpr int kMaxClassLog = 20;  // 1 MiB
  static constexpr uint8_t kExactClass = 0xff;

  // One pool per process: the simulator is single-threaded, and sharing
  // freelists across consecutive Engine runs is exactly what we want.
  static BufferPool& instance() {
    static BufferPool pool;
    return pool;
  }

  ~BufferPool() {
    for (auto& fl : free_) {
      for (BufHeader* h : fl) ::operator delete(h);
    }
  }

  BufHeader* allocate(size_t capacity) {
    BufHeader* h;
    if (capacity > (size_t{1} << kMaxClassLog)) {
      h = raw_alloc(capacity, kExactClass);
      ++fresh_allocs_;
    } else {
      const int cls = class_for(capacity);
      auto& fl = free_[static_cast<size_t>(cls - kMinClassLog)];
      if (!fl.empty()) {
        h = fl.back();
        fl.pop_back();
        ++reuses_;
      } else {
        h = raw_alloc(size_t{1} << cls, static_cast<uint8_t>(cls));
        ++fresh_allocs_;
      }
    }
    h->refs = 1;
    h->len = 0;
    h->off = 0;
    return h;
  }

  void release(BufHeader* h) {
    if (h->cls == kExactClass) {
      ::operator delete(h);
      return;
    }
    free_[static_cast<size_t>(h->cls - kMinClassLog)].push_back(h);
  }

  uint64_t fresh_allocs() const { return fresh_allocs_; }
  uint64_t reuses() const { return reuses_; }

 private:
  static int class_for(size_t capacity) {
    int cls = kMinClassLog;
    while ((size_t{1} << cls) < capacity) ++cls;
    return cls;
  }

  static BufHeader* raw_alloc(size_t cap, uint8_t cls) {
    auto* h = static_cast<BufHeader*>(::operator new(sizeof(BufHeader) + cap));
    h->cap = static_cast<uint32_t>(cap);
    h->cls = cls;
    return h;
  }

  std::vector<BufHeader*> free_[kMaxClassLog - kMinClassLog + 1];
  uint64_t fresh_allocs_ = 0;
  uint64_t reuses_ = 0;
};

// Read-only view of a Buffer's bytes. Converts to span (for readers) and,
// as a compat escape hatch, to a fresh vector (copying) for test code that
// stores payloads.
class BufView {
 public:
  BufView(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  operator std::span<const uint8_t>() const {  // NOLINT
    return {data_, size_};
  }
  operator std::vector<uint8_t>() const {  // NOLINT
    return {data_, data_ + size_};
  }

 private:
  const uint8_t* data_;
  size_t size_;
};

// Shared immutable bytes: a one-pointer handle on a pooled block.
// operator* / operator-> mimic the old shared_ptr<const vector<uint8_t>>
// surface so message call sites (`*pkt.bytes`, `pkt.bytes->size()`) read
// the same.
class Buffer {
 public:
  Buffer() = default;
  Buffer(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  // Compat: copies the vector's contents into a pooled block (old
  // make_bytes call sites and tests constructing packets from shared
  // vectors).
  Buffer(const std::shared_ptr<const std::vector<uint8_t>>& v)  // NOLINT
      : Buffer(v ? copy_of(*v) : Buffer()) {}

  static Buffer copy_of(std::span<const uint8_t> bytes) {
    BufHeader* h = BufferPool::instance().allocate(bytes.size());
    std::memcpy(h->data(), bytes.data(), bytes.size());
    h->len = static_cast<uint32_t>(bytes.size());
    return Buffer(h);
  }

  Buffer(const Buffer& other) : h_(other.h_) {
    if (h_) ++h_->refs;
  }
  Buffer(Buffer&& other) noexcept : h_(other.h_) { other.h_ = nullptr; }
  Buffer& operator=(const Buffer& other) {
    if (this != &other) {
      drop();
      h_ = other.h_;
      if (h_) ++h_->refs;
    }
    return *this;
  }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      drop();
      h_ = other.h_;
      other.h_ = nullptr;
    }
    return *this;
  }
  ~Buffer() { drop(); }

  explicit operator bool() const { return h_ != nullptr; }

  const uint8_t* data() const { return h_->data() + h_->off; }
  size_t size() const { return h_ ? h_->len : 0; }
  uint32_t use_count() const { return h_ ? h_->refs : 0; }

  BufView operator*() const { return BufView(data(), h_->len); }
  const Buffer* operator->() const { return this; }

 private:
  explicit Buffer(BufHeader* adopted) : h_(adopted) {}
  friend class PoolWriter;

  void drop() {
    if (h_ && --h_->refs == 0) BufferPool::instance().release(h_);
    h_ = nullptr;
  }

  BufHeader* h_ = nullptr;
};

// Serializer writing straight into a pooled block (ByteWriter's put_* API).
// `headroom` bytes are skipped at the front so a framing header can be
// prepended in place once the payload is encoded — the payload is never
// copied again. finish() hands the block to a Buffer.
class PoolWriter {
 public:
  explicit PoolWriter(size_t reserve = 64, size_t headroom = 0)
      : headroom_(headroom), pos_(headroom), hdr_(headroom) {
    h_ = BufferPool::instance().allocate(headroom + reserve);
  }

  PoolWriter(const PoolWriter&) = delete;
  PoolWriter& operator=(const PoolWriter&) = delete;
  PoolWriter(PoolWriter&& other) noexcept
      : h_(other.h_),
        headroom_(other.headroom_),
        pos_(other.pos_),
        hdr_(other.hdr_) {
    other.h_ = nullptr;
  }

  ~PoolWriter() {
    if (h_) BufferPool::instance().release(h_);
  }

  void put_u8(uint8_t v) {
    ensure(1);
    h_->data()[pos_++] = v;
  }
  void put_u16(uint16_t v) { put_raw(&v, sizeof(v)); }
  void put_u32(uint32_t v) { put_raw(&v, sizeof(v)); }
  void put_u64(uint64_t v) { put_raw(&v, sizeof(v)); }
  void put_i64(int64_t v) { put_raw(&v, sizeof(v)); }
  void put_f64(double v) { put_raw(&v, sizeof(v)); }

  void put_varint(uint64_t v) {
    ensure(10);
    uint8_t* out = h_->data() + pos_;
    while (v >= 0x80) {
      *out++ = static_cast<uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *out++ = static_cast<uint8_t>(v);
    pos_ = static_cast<size_t>(out - h_->data());
  }

  void put_string(std::string_view s) {
    put_varint(s.size());
    put_raw(s.data(), s.size());
  }

  void put_bytes(std::span<const uint8_t> b) {
    put_varint(b.size());
    put_raw(b.data(), b.size());
  }

  void put_raw(const void* p, size_t n) {
    ensure(n);
    std::memcpy(h_->data() + pos_, p, n);
    pos_ += n;
  }

  // Bytes written after the headroom (the payload so far).
  size_t size() const { return pos_ - headroom_; }
  // Start of the payload inside the pooled block.
  const uint8_t* data() const { return h_->data() + headroom_; }

  // Writes `hdr` immediately before the payload, inside the headroom.
  void prepend(std::span<const uint8_t> hdr) {
    assert(hdr.size() <= hdr_ && "prepend exceeds reserved headroom");
    hdr_ -= hdr.size();
    std::memcpy(h_->data() + hdr_, hdr.data(), hdr.size());
  }

  // Transfers the block to a Buffer viewing [prepended header .. payload].
  Buffer finish() && {
    h_->off = static_cast<uint8_t>(hdr_);
    h_->len = static_cast<uint32_t>(pos_ - hdr_);
    BufHeader* h = h_;
    h_ = nullptr;
    return Buffer(h);
  }

 private:
  void ensure(size_t n) {
    if (pos_ + n <= h_->cap) return;
    grow(pos_ + n);
  }

  void grow(size_t need) {
    BufHeader* bigger = BufferPool::instance().allocate(
        need > h_->cap * 2 ? need : h_->cap * 2);
    std::memcpy(bigger->data(), h_->data(), pos_);
    BufferPool::instance().release(h_);
    h_ = bigger;
  }

  BufHeader* h_;
  size_t headroom_;  // payload start
  size_t pos_;       // absolute write position in the data area
  size_t hdr_;       // start of the prepended header (== headroom_ until
                     // prepend() pulls it down)
};

}  // namespace whale
