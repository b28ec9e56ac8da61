// Binary codecs: LEB128 varints, fixed-width little-endian integers, and an
// order-preserving composite key encoding (big-endian sign-flipped integers,
// escaped strings) so that encoded keys compare bytewise in value order.
// The order-preserving encoding is what makes `next()`-style range scans over
// a table/KV-instance prefix possible on the KV substrate.
#ifndef ZIDIAN_COMMON_CODING_H_
#define ZIDIAN_COMMON_CODING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace zidian {

// ---------------------------------------------------------------------------
// Varints (LEB128) and fixed-width integers: used for payload serialization
// (tuples, blocks) where ordering does not matter but compactness does.
// ---------------------------------------------------------------------------

void PutVarint64(std::string* dst, uint64_t v);
/// Consumes a varint from the front of *src. Returns false on truncation.
bool GetVarint64(std::string_view* src, uint64_t* v);

void PutFixed64(std::string* dst, uint64_t v);
bool GetFixed64(std::string_view* src, uint64_t* v);

/// Length-prefixed string (varint length + bytes).
void PutLengthPrefixed(std::string* dst, std::string_view s);
bool GetLengthPrefixed(std::string_view* src, std::string_view* s);

/// ZigZag maps signed to unsigned so small magnitudes stay small.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// ---------------------------------------------------------------------------
// Order-preserving encoding: for all a, b of the same type,
//   a < b  <=>  Encode(a) < Encode(b)  (bytewise).
// Composite keys are concatenations; the string encoding is self-terminating
// so no separator ambiguity arises.
// ---------------------------------------------------------------------------

/// Big-endian with the sign bit flipped: preserves signed order.
void EncodeOrderedInt64(std::string* dst, int64_t v);
bool DecodeOrderedInt64(std::string_view* src, int64_t* v);

/// IEEE-754 total-order trick: positive => flip sign bit, negative => flip
/// all bits. NaNs are rejected at the Value layer before reaching here.
void EncodeOrderedDouble(std::string* dst, double v);
bool DecodeOrderedDouble(std::string_view* src, double* v);

/// Escapes 0x00 as (0x00, 0xFF) and terminates with (0x00, 0x01); the
/// terminator sorts below every escaped byte, so prefixes sort first.
void EncodeOrderedString(std::string* dst, std::string_view s);
bool DecodeOrderedString(std::string_view* src, std::string* s);

}  // namespace zidian

#endif  // ZIDIAN_COMMON_CODING_H_
