// Tuple and message wire formats (paper Fig. 9).
//
// Storm's instance-oriented format carries ONE destination task id per
// message; Whale's BatchTuple carries the id list of every destination
// instance hosted on the target worker, so the data item is serialized and
// transmitted once per worker. Both formats are really encoded here —
// traffic numbers in the benches are byte counts of these encodings.
//
//   TupleMessage   := header(dst_id) body
//   BatchMessage   := header(dst_id_count, dst_ids...) body
//   body           := stream, root_id, root_emit_time, field_count, fields...
//
// The encoders are templates over the writer so the same format definition
// serves ByteWriter (vector-backed) and PoolWriter (pooled zero-copy
// framing) without a second copy of the format.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "dsps/tuple.h"

namespace whale::dsps {

class TupleSerde {
 public:
  enum FieldTag : uint8_t { kInt = 0, kDouble = 1, kString = 2 };

  // Body only (shared between both message formats).
  template <typename W>
  static void encode_body(const Tuple& t, W& w) {
    w.put_varint(t.stream);
    w.put_u64(t.root_id);
    w.put_i64(t.root_emit_time);
    w.put_varint(t.values.size());
    for (const auto& v : t.values) {
      switch (v.index()) {
        case Value::kInt:
          w.put_u8(kInt);
          w.put_i64(v.as_int());
          break;
        case Value::kDouble:
          w.put_u8(kDouble);
          w.put_f64(v.as_double());
          break;
        case Value::kString:
          w.put_u8(kString);
          w.put_string(v.as_string());
          break;
      }
    }
  }
  static Tuple decode_body(ByteReader& r);

  // Instance-oriented (Storm, Fig. 9a): one destination task id.
  template <typename W>
  static void encode_instance_into(W& w, int32_t dst_task, const Tuple& t) {
    w.put_varint(static_cast<uint64_t>(dst_task));
    encode_body(t, w);
  }
  static std::vector<uint8_t> encode_instance_message(int32_t dst_task,
                                                      const Tuple& t);
  struct InstanceMessage {
    int32_t dst_task;
    Tuple tuple;
  };
  static InstanceMessage decode_instance_message(
      std::span<const uint8_t> bytes);

  // Worker-oriented BatchTuple (Whale, Fig. 9b): all destination ids on the
  // target worker share one serialized data item. Templated over the id
  // container so pooled and plain vectors both encode without a copy.
  template <typename W, typename Dsts>
  static void encode_batch_into(W& w, const Dsts& dst_tasks, const Tuple& t) {
    w.put_varint(dst_tasks.size());
    for (int32_t id : dst_tasks) w.put_varint(static_cast<uint64_t>(id));
    encode_body(t, w);
  }
  static std::vector<uint8_t> encode_batch_message(
      const std::vector<int32_t>& dst_tasks, const Tuple& t);
  struct BatchMessage {
    // Decoded once per received message on the data path; pooled for the
    // same reason as Tuple::values.
    PooledVec<int32_t> dst_tasks;
    Tuple tuple;
  };
  static BatchMessage decode_batch_message(std::span<const uint8_t> bytes);

  // Serialized body size, computed arithmetically — no encoding pass (used
  // by cost charging on paths that reuse an already-encoded body).
  static size_t body_size(const Tuple& t);
};

}  // namespace whale::dsps
