#include "storage/kv_backend.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "common/coding.h"

namespace zidian {

void KvBackend::MultiGet(std::span<const BatchedKey> keys,
                         std::vector<std::optional<std::string>>* out) const {
  for (const BatchedKey& req : keys) {
    auto res = Get(req.key);
    if (res.ok()) (*out)[req.slot] = std::move(res).value();
  }
}

Status KvBackend::SaveToFile(const std::string& path) const {
  std::string buf;
  uint64_t count = 0;
  std::string body;
  for (auto it = NewIterator(); it->Valid(); it->Next()) {
    PutLengthPrefixed(&body, it->key());
    PutLengthPrefixed(&body, it->value());
    ++count;
  }
  PutFixed64(&buf, count);
  buf += body;
  // Write a sibling file and rename it over `path`: a failed save leaves
  // the previous file whole instead of half overwritten.
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + tmp);
  size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != buf.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Status KvBackend::LoadFromFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string buf;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) buf.append(chunk, n);
  std::fclose(f);
  std::string_view sv(buf);
  uint64_t count;
  if (!GetFixed64(&sv, &count)) return Status::Corruption("bad header");
  // Parse every entry before touching the node: a file that does not
  // parse whole leaves the node as it was. The entries are views into
  // `buf`; a count larger than the file could hold is caught by the
  // parse, never by a reservation.
  std::vector<std::pair<std::string_view, std::string_view>> entries;
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view k, v;
    if (!GetLengthPrefixed(&sv, &k) || !GetLengthPrefixed(&sv, &v)) {
      return Status::Corruption("truncated entry");
    }
    entries.emplace_back(k, v);
  }
  Clear();
  for (const auto& [k, v] : entries) ZIDIAN_RETURN_NOT_OK(Put(k, v));
  return Status::OK();
}

}  // namespace zidian
