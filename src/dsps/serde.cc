#include "dsps/serde.h"

namespace whale::dsps {

Tuple TupleSerde::decode_body(ByteReader& r) {
  Tuple t;
  t.stream = static_cast<uint32_t>(r.get_varint());
  t.root_id = r.get_u64();
  t.root_emit_time = r.get_i64();
  const size_t n = r.get_varint();
  t.values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (r.get_u8()) {
      case kInt:
        t.values.emplace_back(r.get_i64());
        break;
      case kDouble:
        t.values.emplace_back(r.get_f64());
        break;
      case kString:
        t.values.emplace_back(r.get_string());
        break;
      default:
        throw std::runtime_error("bad field tag");
    }
  }
  return t;
}

std::vector<uint8_t> TupleSerde::encode_instance_message(int32_t dst_task,
                                                         const Tuple& t) {
  ByteWriter w(t.approx_bytes() + 32);
  encode_instance_into(w, dst_task, t);
  return w.take();
}

TupleSerde::InstanceMessage TupleSerde::decode_instance_message(
    std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  InstanceMessage m;
  m.dst_task = static_cast<int32_t>(r.get_varint());
  m.tuple = decode_body(r);
  return m;
}

std::vector<uint8_t> TupleSerde::encode_batch_message(
    const std::vector<int32_t>& dst_tasks, const Tuple& t) {
  ByteWriter w(t.approx_bytes() + 32 + dst_tasks.size() * 2);
  encode_batch_into(w, dst_tasks, t);
  return w.take();
}

TupleSerde::BatchMessage TupleSerde::decode_batch_message(
    std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  BatchMessage m;
  const size_t n = r.get_varint();
  m.dst_tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    m.dst_tasks.push_back(static_cast<int32_t>(r.get_varint()));
  }
  m.tuple = decode_body(r);
  return m;
}

size_t TupleSerde::body_size(const Tuple& t) {
  // Mirrors encode_body field by field, without encoding anything.
  size_t n = varint_size(t.stream) + sizeof(uint64_t) + sizeof(int64_t) +
             varint_size(t.values.size());
  for (const auto& v : t.values) {
    n += 1;  // field tag
    if (v.index() == Value::kString) {
      const size_t len = v.as_string().size();
      n += varint_size(len) + len;
    } else {
      n += 8;  // i64 / f64
    }
  }
  return n;
}

}  // namespace whale::dsps
