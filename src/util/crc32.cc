#include "src/util/crc32.h"

#include <array>
#include <cstring>

#include "src/util/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define S4_CRC32C_X86_64 1
#include <nmmintrin.h>
#endif

namespace s4 {
namespace {

// CRC32C polynomial (reflected): 0x82F63B78.
constexpr uint32_t kPoly = 0x82F63B78u;

// Slicing-by-8 tables. kTables[0] is the classic byte-at-a-time table;
// kTables[k][b] is the CRC of byte b followed by k zero bytes, which lets the
// portable kernel fold eight input bytes per step with eight lookups.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTables BuildTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr SliceTables kTables = BuildTables();

// Little-endian 32-bit load from any alignment, independent of host order.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

#ifdef S4_CRC32C_X86_64
// One crc32 instruction per 8-byte word, then per byte for the tail. The
// target attribute enables SSE4.2 for this function alone, so the rest of the
// build still runs on any x86-64 CPU.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t state, ByteSpan data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t crc = state;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe; x86 is little-endian
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    tail = _mm_crc32_u8(tail, *p);
  }
  return tail;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, ByteSpan);

// Chosen once per process; the function-local static makes the first call
// thread-safe without an atomic.
ExtendFn Kernel() {
#ifdef S4_CRC32C_X86_64
  static const ExtendFn kKernel =
      Crc32cHardwareSupported() ? ExtendSse42 : Crc32cExtendPortable;
  return kKernel;
#else
  return Crc32cExtendPortable;
#endif
}

}  // namespace

bool Crc32cHardwareSupported() {
#ifdef S4_CRC32C_X86_64
  static const bool kSupported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return kSupported;
#else
  return false;
#endif
}

uint32_t Crc32cExtendHardware(uint32_t state, ByteSpan data) {
  S4_CHECK(Crc32cHardwareSupported());
#ifdef S4_CRC32C_X86_64
  return ExtendSse42(state, data);
#else
  return state;  // unreachable: the check above fails on this build
#endif
}

uint32_t Crc32cExtendPortable(uint32_t state, ByteSpan data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = state ^ LoadLe32(p);
    uint32_t hi = LoadLe32(p + 4);
    state = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
            kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
            kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = kTables[0][(state ^ *p) & 0xFF] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32cInit() { return 0xFFFFFFFFu; }

uint32_t Crc32cExtend(uint32_t state, ByteSpan data) { return Kernel()(state, data); }

uint32_t Crc32cFinish(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32c(ByteSpan data) { return Crc32cFinish(Crc32cExtend(Crc32cInit(), data)); }

}  // namespace s4
