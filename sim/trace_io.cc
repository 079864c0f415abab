#include "sim/trace_io.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include <unistd.h>

#include "common/fnv1a.h"

namespace clic {
namespace {

constexpr std::uint32_t kMagic = 0x434C5452;  // "CLTR"
constexpr std::uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteRaw(std::FILE* f, Fnv1a& sum, const void* data, std::size_t n) {
  sum.Mix(data, n);
  return std::fwrite(data, 1, n, f) == n;
}

bool ReadRaw(std::FILE* f, Fnv1a& sum, void* data, std::size_t n) {
  if (std::fread(data, 1, n, f) != n) return false;
  sum.Mix(data, n);
  return true;
}

template <typename T>
bool WriteScalar(std::FILE* f, Fnv1a& sum, T value) {
  return WriteRaw(f, sum, &value, sizeof(value));
}

template <typename T>
bool ReadScalar(std::FILE* f, Fnv1a& sum, T* value) {
  return ReadRaw(f, sum, value, sizeof(*value));
}

}  // namespace

bool SaveTrace(const Trace& trace, const std::string& path) {
  // Unique temp name per (process, call): concurrent savers of the same
  // trace never interleave writes into one file, and the final path only
  // ever appears via the atomic rename() below — readers see a complete
  // checksummed file or nothing.
  static std::atomic<std::uint64_t> save_counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(save_counter.fetch_add(1, std::memory_order_relaxed));
  FilePtr file(std::fopen(tmp.c_str(), "wb"));
  if (!file) return false;
  std::FILE* f = file.get();
  Fnv1a sum;

  bool ok = WriteScalar(f, sum, kMagic) && WriteScalar(f, sum, kVersion);
  const std::uint32_t name_len =
      static_cast<std::uint32_t>(trace.name.size());
  ok = ok && WriteScalar(f, sum, name_len) &&
       WriteRaw(f, sum, trace.name.data(), name_len);

  const std::uint64_t num_hints = trace.hints->size();
  ok = ok && WriteScalar(f, sum, num_hints);
  for (std::uint64_t i = 0; ok && i < num_hints; ++i) {
    const HintVector& v = trace.hints->Get(static_cast<HintSetId>(i));
    const std::uint32_t nattrs = static_cast<std::uint32_t>(v.attrs.size());
    ok = WriteScalar(f, sum, v.client) && WriteScalar(f, sum, nattrs) &&
         (nattrs == 0 ||
          WriteRaw(f, sum, v.attrs.data(), nattrs * sizeof(std::uint32_t)));
  }

  const std::uint64_t num_requests = trace.requests.size();
  ok = ok && WriteScalar(f, sum, num_requests);
  for (std::uint64_t i = 0; ok && i < num_requests; ++i) {
    const Request& r = trace.requests[i];
    ok = WriteScalar(f, sum, r.page) && WriteScalar(f, sum, r.hint_set) &&
         WriteScalar(f, sum, r.client) &&
         WriteScalar(f, sum, static_cast<std::uint8_t>(r.op)) &&
         WriteScalar(f, sum, static_cast<std::uint8_t>(r.write_kind));
  }

  if (ok) {
    const std::uint64_t checksum = sum.value();
    ok = std::fwrite(&checksum, 1, sizeof(checksum), f) == sizeof(checksum);
  }
  file.reset();  // flush + close before rename
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<Trace> LoadTrace(const std::string& path,
                               const std::string& expected_name) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (!file) return std::nullopt;
  std::FILE* f = file.get();
  // File size bounds every element count below, so a corrupted count
  // can never trigger a huge allocation before the checksum check.
  if (std::fseek(f, 0, SEEK_END) != 0) return std::nullopt;
  const long file_size = std::ftell(f);
  if (file_size < 0 || std::fseek(f, 0, SEEK_SET) != 0) return std::nullopt;
  Fnv1a sum;

  std::uint32_t magic = 0, version = 0, name_len = 0;
  if (!ReadScalar(f, sum, &magic) || magic != kMagic) return std::nullopt;
  if (!ReadScalar(f, sum, &version) || version != kVersion) {
    return std::nullopt;
  }
  if (!ReadScalar(f, sum, &name_len) || name_len > 4096) return std::nullopt;
  std::string name(name_len, '\0');
  if (name_len > 0 && !ReadRaw(f, sum, name.data(), name_len)) {
    return std::nullopt;
  }
  if (name != expected_name) return std::nullopt;

  Trace trace;
  trace.name = name;
  std::uint64_t num_hints = 0;
  if (!ReadScalar(f, sum, &num_hints) ||
      num_hints > static_cast<std::uint64_t>(file_size) / 6) {
    return std::nullopt;  // each hint entry is at least 6 bytes
  }
  for (std::uint64_t i = 0; i < num_hints; ++i) {
    HintVector v;
    std::uint32_t nattrs = 0;
    if (!ReadScalar(f, sum, &v.client) || !ReadScalar(f, sum, &nattrs) ||
        nattrs > 4096) {
      return std::nullopt;
    }
    v.attrs.resize(nattrs);
    if (nattrs > 0 &&
        !ReadRaw(f, sum, v.attrs.data(), nattrs * sizeof(std::uint32_t))) {
      return std::nullopt;
    }
    // Ids must come back dense and in order.
    if (trace.hints->Intern(std::move(v)) != i) return std::nullopt;
  }

  std::uint64_t num_requests = 0;
  if (!ReadScalar(f, sum, &num_requests) ||
      num_requests > static_cast<std::uint64_t>(file_size) / 12) {
    return std::nullopt;  // each request record is 12 bytes on disk
  }
  trace.requests.resize(num_requests);
  for (std::uint64_t i = 0; i < num_requests; ++i) {
    Request& r = trace.requests[i];
    std::uint8_t op = 0, write_kind = 0;
    if (!ReadScalar(f, sum, &r.page) || !ReadScalar(f, sum, &r.hint_set) ||
        !ReadScalar(f, sum, &r.client) || !ReadScalar(f, sum, &op) ||
        !ReadScalar(f, sum, &write_kind)) {
      return std::nullopt;
    }
    if (op > 1 || write_kind > 2) return std::nullopt;
    // Every request's hint id must index the registry; a trace with
    // requests but no interned hints is malformed.
    if (r.hint_set >= num_hints) return std::nullopt;
    r.op = static_cast<OpType>(op);
    r.write_kind = static_cast<WriteKind>(write_kind);
  }

  std::uint64_t stored = 0;
  if (std::fread(&stored, 1, sizeof(stored), f) != sizeof(stored)) {
    return std::nullopt;
  }
  if (stored != sum.value()) return std::nullopt;
  return trace;
}

}  // namespace clic
