/// \file bytes.h
/// \brief Byte-buffer aliases and hex/concat helpers used across the library.

#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace confide {

/// \brief Owning byte buffer.
using Bytes = std::vector<uint8_t>;

/// \brief Non-owning read-only view of bytes.
using ByteView = std::span<const uint8_t>;

/// \brief Builds an owning buffer from a view.
inline Bytes ToBytes(ByteView v) { return Bytes(v.begin(), v.end()); }

/// \brief Builds an owning buffer from a string's bytes.
inline Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// \brief Interprets a byte buffer as a string (copy).
inline std::string ToString(ByteView v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

/// \brief Views a string's bytes without copying.
inline ByteView AsByteView(std::string_view s) {
  return ByteView(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

/// \brief Appends `src` to `dst`.
inline void Append(Bytes* dst, ByteView src) {
  const size_t offset = dst->size();
  dst->resize(offset + src.size());
  if (!src.empty()) std::memcpy(dst->data() + offset, src.data(), src.size());
}

/// \brief Concatenates any number of byte views.
template <typename... Views>
Bytes Concat(const Views&... views) {
  Bytes out;
  size_t total = (static_cast<size_t>(0) + ... + ByteView(views).size());
  out.reserve(total);
  (Append(&out, ByteView(views)), ...);
  return out;
}

/// \brief Lower-case hex encoding.
std::string HexEncode(ByteView data);

/// \brief Decodes hex (with optional "0x" prefix); rejects odd length and
/// non-hex characters.
Result<Bytes> HexDecode(std::string_view hex);

/// \brief Constant-time equality for secrets (length leak only).
bool ConstantTimeEqual(ByteView a, ByteView b);

/// \brief Best-effort zeroization that the optimizer cannot elide.
void SecureZero(uint8_t* data, size_t len);
inline void SecureZero(Bytes* b) { SecureZero(b->data(), b->size()); }

}  // namespace confide
