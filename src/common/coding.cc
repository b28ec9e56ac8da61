#include "common/coding.h"

#include <cstring>

namespace zidian {

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

bool GetVarint64(std::string_view* src, uint64_t* v) {
  uint64_t out = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (src->empty()) return false;
    uint8_t byte = static_cast<uint8_t>(src->front());
    src->remove_prefix(1);
    // The tenth byte holds only bit 63: any higher payload bit would shift
    // past the top of the result and vanish, so an encoding carrying one is
    // rejected rather than silently truncated to the low 64 bits.
    if (shift == 63 && (byte & 0x7E) != 0) return false;
    out |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = out;
      return true;
    }
  }
  return false;
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

bool GetFixed64(std::string_view* src, uint64_t* v) {
  if (src->size() < 8) return false;
  std::memcpy(v, src->data(), 8);
  src->remove_prefix(8);
  return true;
}

void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

bool GetLengthPrefixed(std::string_view* src, std::string_view* s) {
  uint64_t len;
  if (!GetVarint64(src, &len) || src->size() < len) return false;
  *s = src->substr(0, len);
  src->remove_prefix(len);
  return true;
}

void EncodeOrderedInt64(std::string* dst, int64_t v) {
  uint64_t u = static_cast<uint64_t>(v) ^ (1ull << 63);  // flip sign bit
  for (int i = 7; i >= 0; --i) {
    dst->push_back(static_cast<char>((u >> (i * 8)) & 0xFF));
  }
}

bool DecodeOrderedInt64(std::string_view* src, int64_t* v) {
  if (src->size() < 8) return false;
  uint64_t u = 0;
  for (int i = 0; i < 8; ++i) {
    u = (u << 8) | static_cast<uint8_t>((*src)[i]);
  }
  src->remove_prefix(8);
  *v = static_cast<int64_t>(u ^ (1ull << 63));
  return true;
}

void EncodeOrderedDouble(std::string* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  if (bits & (1ull << 63)) {
    bits = ~bits;  // negative: flip everything
  } else {
    bits ^= (1ull << 63);  // positive: flip sign bit only
  }
  for (int i = 7; i >= 0; --i) {
    dst->push_back(static_cast<char>((bits >> (i * 8)) & 0xFF));
  }
}

bool DecodeOrderedDouble(std::string_view* src, double* v) {
  if (src->size() < 8) return false;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits = (bits << 8) | static_cast<uint8_t>((*src)[i]);
  }
  src->remove_prefix(8);
  if (bits & (1ull << 63)) {
    bits ^= (1ull << 63);
  } else {
    bits = ~bits;
  }
  std::memcpy(v, &bits, 8);
  return true;
}

void EncodeOrderedString(std::string* dst, std::string_view s) {
  for (char c : s) {
    if (c == '\x00') {
      dst->push_back('\x00');
      dst->push_back('\xFF');
    } else {
      dst->push_back(c);
    }
  }
  dst->push_back('\x00');
  dst->push_back('\x01');
}

bool DecodeOrderedString(std::string_view* src, std::string* s) {
  s->clear();
  while (true) {
    if (src->empty()) return false;
    char c = src->front();
    src->remove_prefix(1);
    if (c != '\x00') {
      s->push_back(c);
      continue;
    }
    if (src->empty()) return false;
    char next = src->front();
    src->remove_prefix(1);
    if (next == '\x01') return true;      // terminator
    if (next == '\xFF') {
      s->push_back('\x00');               // escaped zero byte
      continue;
    }
    return false;  // malformed escape
  }
}

}  // namespace zidian
