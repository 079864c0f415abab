// FNV-1a, the hash behind every file format and decision: hint-vector
// interning, trace-file checksums, shard placement (ShardOf) and
// trace-name seed derivation all share this implementation so the
// constants can never drift apart. It is not the checksum of wire
// frames, which take a word-wise one (server/net/wire_format.h).
#pragma once

#include <cstdint>
#include <string>

namespace clic {

class Fnv1a {
 public:
  void Mix(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ull;
    }
  }

  template <typename T>
  void MixScalar(T value) {
    Mix(&value, sizeof(value));
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

inline std::uint64_t Fnv1aHash(const std::string& s) {
  Fnv1a h;
  h.Mix(s.data(), s.size());
  return h.value();
}

}  // namespace clic
