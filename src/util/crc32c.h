#ifndef WYM_UTIL_CRC32C_H_
#define WYM_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string>

/// \file
/// From-scratch CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected
/// 0x82F63B78) — the checksum guarding every frame of the model-file
/// format v2 (see DESIGN.md "Failure model & file-format v2"). The
/// Castagnoli polynomial detects all 1- and 2-bit errors and all burst
/// errors up to 32 bits, which is exactly the fault model of the
/// fault-injection sweep in tests/fault_injection_test.cc.
///
/// Table-driven software implementation (slice-by-1): persistence is a
/// cold path, so simplicity and portability win over a hardware SSE4.2
/// path — and keeping it scalar keeps intrinsics confined to the AVX2
/// kernel TU (wym-lint `simd-outside-kernels`).

namespace wym::crc32c {

/// Extends a running CRC with `size` bytes. Pass the return value of a
/// previous call to checksum data in chunks; start from `Init()`.
uint32_t Extend(uint32_t crc, const void* data, size_t size);

/// Initial value of a running CRC (before any bytes).
inline uint32_t Init() { return 0; }

/// One-shot CRC32C of a buffer.
inline uint32_t Crc32c(const void* data, size_t size) {
  return Extend(Init(), data, size);
}
inline uint32_t Crc32c(const std::string& data) {
  return Crc32c(data.data(), data.size());
}

/// Fixed-width lowercase hex rendering ("e3069283") used by the framed
/// file format, and its inverse. `FromHex` returns false on anything
/// that is not exactly 8 lowercase/uppercase hex digits.
std::string ToHex(uint32_t crc);
bool FromHex(const std::string& hex, uint32_t* crc);

}  // namespace wym::crc32c

#endif  // WYM_UTIL_CRC32C_H_
