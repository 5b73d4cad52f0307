// Byte-buffer writer/reader used by the wire protocol and the binary trace
// format. Integers are encoded little-endian, matching the historical
// Second Life UDP protocol that libsecondlife spoke.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace slmob {

// Thrown by ByteReader on truncated or malformed input.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`,
// computed slice-by-8 (eight table lookups per eight input bytes).
// Used to frame journal records and checkpoint files so a torn or
// bit-flipped tail is detected instead of decoded as garbage.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes);

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  // Overwrites the four bytes at `offset` with `v`: fills in a length or
  // checksum written ahead as a placeholder.
  void u32_at(std::size_t offset, std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v);
  void f64(double v);
  // Length-prefixed (u16) string; throws std::length_error beyond 65535 bytes.
  void str(std::string_view s);
  void raw(std::span<const std::uint8_t> bytes);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  // Drops the contents but keeps the capacity, so a writer reused across
  // packets stops allocating once it has seen the largest one.
  void clear() { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32();
  double f64();
  std::string str();
  // Reads exactly n raw bytes.
  std::vector<std::uint8_t> raw(std::size_t n);
  // Consumes and returns a view of everything left, without copying. The
  // span aliases the reader's input buffer.
  std::span<const std::uint8_t> rest() {
    const auto s = data_.subspan(pos_);
    pos_ = data_.size();
    return s;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }

 private:
  void require(std::size_t n) const;
  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
};

}  // namespace slmob
