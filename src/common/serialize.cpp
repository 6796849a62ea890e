#include "common/serialize.hpp"

#include <bit>
#include <cstring>

#include "common/error.hpp"

namespace spice {

static_assert(std::endian::native == std::endian::little,
              "serialization assumes a little-endian host");

void BinaryWriter::write_u8(std::uint8_t v) { buffer_.push_back(v); }

void BinaryWriter::write_u32(std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  buffer_.insert(buffer_.end(), p, p + sizeof(v));
}

void BinaryWriter::write_u64(std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  buffer_.insert(buffer_.end(), p, p + sizeof(v));
}

void BinaryWriter::write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }

void BinaryWriter::write_f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  buffer_.insert(buffer_.end(), p, p + s.size());
}

void BinaryWriter::write_vec3(const Vec3& v) {
  write_f64(v.x);
  write_f64(v.y);
  write_f64(v.z);
}

void BinaryWriter::write_f64_span(std::span<const double> xs) {
  write_u64(xs.size());
  for (double x : xs) write_f64(x);
}

void BinaryWriter::write_vec3_span(std::span<const Vec3> xs) {
  write_u64(xs.size());
  for (const Vec3& v : xs) write_vec3(v);
}

void BinaryReader::need(std::size_t n) {
  if (remaining() < n) throw Error("BinaryReader: truncated input");
}

void BinaryReader::need_elements(std::uint64_t n, std::size_t size) {
  if (n > remaining() / size) throw Error("BinaryReader: length word exceeds the input");
}

std::uint8_t BinaryReader::read_u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint32_t BinaryReader::read_u32() {
  need(4);
  std::uint32_t v = 0;
  std::memcpy(&v, bytes_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  need(8);
  std::uint64_t v = 0;
  std::memcpy(&v, bytes_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::int64_t BinaryReader::read_i64() { return static_cast<std::int64_t>(read_u64()); }

double BinaryReader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string BinaryReader::read_string() {
  const std::uint64_t n = read_u64();
  need(n);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
  return s;
}

Vec3 BinaryReader::read_vec3() {
  const double x = read_f64();
  const double y = read_f64();
  const double z = read_f64();
  return {x, y, z};
}

std::vector<double> BinaryReader::read_f64_vector() {
  const std::uint64_t n = read_u64();
  need_elements(n, 8);
  std::vector<double> xs(n);
  for (auto& x : xs) x = read_f64();
  return xs;
}

std::vector<Vec3> BinaryReader::read_vec3_vector() {
  const std::uint64_t n = read_u64();
  need_elements(n, 24);
  std::vector<Vec3> xs(n);
  for (auto& v : xs) v = read_vec3();
  return xs;
}

}  // namespace spice
