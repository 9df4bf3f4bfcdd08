// Explicit little-endian binary serialization primitives.
//
// The persistent solve cache (core/solve_store.h) stores solver outputs
// whose whole value is bit-exactness, so its on-disk format is defined at
// the byte level rather than via in-memory struct layout: fixed-width
// little-endian integers and IEEE-754 doubles written through their
// std::memcpy'd bit patterns.  A file written on any supported platform
// reads back bit-identically on any other, and no padding, endianness or
// struct-layout assumption ever leaks into the format.
//
// BinaryReader is bounds-checked: every primitive throws util::Error on
// truncation instead of reading past the buffer, so a corrupted or
// truncated cache file degrades to a rejected entry, never to undefined
// behaviour.
#ifndef ACS_UTIL_BINARY_IO_H
#define ACS_UTIL_BINARY_IO_H

#include <cstdint>
#include <string>
#include <vector>

namespace dvs::util {

class BinaryWriter {
 public:
  void U8(std::uint8_t value);
  void U32(std::uint32_t value);
  void U64(std::uint64_t value);
  void I64(std::int64_t value);
  /// Exact bit pattern (NaN payloads and signed zeros round-trip).
  void F64(double value);
  /// Length-prefixed (U64) raw bytes.
  void Str(const std::string& value);
  void VecF64(const std::vector<double>& values);
  void VecVecF64(const std::vector<std::vector<double>>& values);
  /// Raw bytes, no length prefix (composing nested payloads).
  void Raw(const std::string& bytes);

  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

class BinaryReader {
 public:
  /// Non-owning view; `data` must outlive the reader.
  BinaryReader(const char* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(const std::string& data)
      : BinaryReader(data.data(), data.size()) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64();
  double F64();
  std::string Str();
  std::vector<double> VecF64();
  std::vector<std::vector<double>> VecVecF64();

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return size_ - offset_; }
  bool AtEnd() const { return offset_ == size_; }

 private:
  /// Advances past `n` bytes, throwing util::Error on truncation.
  const char* Take(std::size_t n);

  const char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

/// FNV-1a over a byte string — the solve store's payload checksum and
/// content keys (same function family as PlanningPoint::Fingerprint).
std::uint64_t Fnv1a(const std::string& bytes);

}  // namespace dvs::util

#endif  // ACS_UTIL_BINARY_IO_H
