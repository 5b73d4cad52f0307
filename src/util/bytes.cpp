#include "util/bytes.hpp"

#include <array>

namespace slmob {
namespace {

// Slice-by-8 tables for the reflected IEEE polynomial, built once at first
// use. table[0] is the classic bytewise table; table[t][b] extends it so
// that eight input bytes advance the CRC with eight independent lookups and
// two shifts instead of eight serially dependent table steps — journal
// replay, checkpoint verify and salvage all hash megabytes per run through
// this function.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

const Crc32Tables& crc32_tables() {
  static const auto tables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t slice = 1; slice < 8; ++slice) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[slice][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  const Crc32Tables& t = crc32_tables();
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  // Eight bytes per iteration. The two words are assembled from individual
  // bytes (endian-independent; folds to a plain load on little-endian) and
  // the eight lookups carry no serial dependency between them.
  while (n >= 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    (static_cast<std::uint32_t>(p[1]) << 8) |
                                    (static_cast<std::uint32_t>(p[2]) << 16) |
                                    (static_cast<std::uint32_t>(p[3]) << 24));
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             (static_cast<std::uint32_t>(p[5]) << 8) |
                             (static_cast<std::uint32_t>(p[6]) << 16) |
                             (static_cast<std::uint32_t>(p[7]) << 24);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n != 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
  buf_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void ByteWriter::u32_at(std::size_t offset, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.at(offset++) = static_cast<std::uint8_t>((v >> shift) & 0xff);
  }
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void ByteWriter::f32(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u32(bits);
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void ByteWriter::str(std::string_view s) {
  if (s.size() > 0xffff) throw std::length_error("ByteWriter::str: string too long");
  u16(static_cast<std::uint16_t>(s.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void ByteWriter::raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) throw DecodeError("ByteReader: truncated input");
}

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  require(2);
  std::uint16_t v = 0;
  v |= static_cast<std::uint16_t>(data_[pos_]);
  v |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(data_[pos_ + 1]) << 8);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

float ByteReader::f32() {
  const std::uint32_t bits = u32();
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string ByteReader::str() {
  const std::uint16_t len = u16();
  require(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

std::vector<std::uint8_t> ByteReader::raw(std::size_t n) {
  require(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace slmob
