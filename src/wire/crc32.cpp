#include "wire/crc32.hpp"

#include <array>

namespace ecfd::wire {

namespace {

using Table = std::array<std::uint32_t, 256>;

// kTables[0] is the classic byte table; kTables[k][b] is the CRC state of
// byte b followed by k zero bytes.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) {
  const auto& t = kTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = c ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ecfd::wire
