#include "dsps/topology.h"

#include <stdexcept>

namespace whale::dsps {

uint64_t value_hash(const Value& v) {
  switch (v.index()) {
    case Value::kInt: {
      uint64_t z = static_cast<uint64_t>(v.as_int()) + 0x9e3779b97f4a7c15ULL;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    }
    case Value::kDouble: {
      const double d = v.as_double();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return value_hash(Value{static_cast<int64_t>(bits)});
    }
    case Value::kString:
      break;
  }
  // FNV-1a for strings.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : v.as_string()) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

int TopologyBuilder::add_spout(std::string name, SpoutFactory f,
                               int parallelism, RateProfile rate) {
  if (parallelism < 1) throw std::invalid_argument("parallelism < 1");
  OperatorSpec op;
  op.name = std::move(name);
  op.parallelism = parallelism;
  op.is_spout = true;
  op.spout_factory = std::move(f);
  op.rate = std::move(rate);
  topo_.ops.push_back(std::move(op));
  return static_cast<int>(topo_.ops.size()) - 1;
}

int TopologyBuilder::add_bolt(std::string name, BoltFactory f,
                              int parallelism) {
  if (parallelism < 1) throw std::invalid_argument("parallelism < 1");
  OperatorSpec op;
  op.name = std::move(name);
  op.parallelism = parallelism;
  op.bolt_factory = std::move(f);
  topo_.ops.push_back(std::move(op));
  return static_cast<int>(topo_.ops.size()) - 1;
}

int TopologyBuilder::connect(int from_op, int to_op, Grouping g,
                             size_t key_field) {
  if (from_op < 0 || from_op >= static_cast<int>(topo_.ops.size()) ||
      to_op < 0 || to_op >= static_cast<int>(topo_.ops.size())) {
    throw std::out_of_range("connect: bad operator index");
  }
  if (topo_.ops[static_cast<size_t>(to_op)].is_spout) {
    throw std::invalid_argument("connect: spouts cannot receive streams");
  }
  StreamSpec s;
  s.id = static_cast<int>(topo_.streams.size());
  s.from_op = from_op;
  s.to_op = to_op;
  s.grouping = g;
  s.key_field = key_field;
  topo_.streams.push_back(s);
  topo_.ops[static_cast<size_t>(from_op)].out_streams.push_back(s.id);
  topo_.ops[static_cast<size_t>(to_op)].in_streams.push_back(s.id);
  return s.id;
}

}  // namespace whale::dsps
