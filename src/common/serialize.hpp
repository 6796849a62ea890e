#pragma once
// Binary serialization used for MD checkpoints and steering-framework
// checkpoint/clone. Little-endian, versioned, with a magic header; the
// format is an implementation detail of this library (not an interchange
// format), so we only guarantee same-build round-tripping.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/vec3.hpp"

namespace spice {

class BinaryWriter {
 public:
  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_vec3(const Vec3& v);
  void write_f64_span(std::span<const double> xs);
  void write_vec3_span(std::span<const Vec3> xs);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Reader over an externally owned byte buffer. Throws spice::Error on
/// truncated input, including a length word that promises more elements
/// than the remaining bytes can hold.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  double read_f64();
  std::string read_string();
  Vec3 read_vec3();
  std::vector<double> read_f64_vector();
  std::vector<Vec3> read_vec3_vector();

  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void need(std::size_t n);
  /// Check a length word of `n` elements of `size` bytes each without
  /// forming n × size, which a corrupt word would wrap.
  void need_elements(std::uint64_t n, std::size_t size);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace spice
