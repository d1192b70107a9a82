// CRC32C (Castagnoli) — integrity checksums for sectors, segments, journal
// sectors, and RPC frames.
//
// Two kernels compute the same function: an SSE4.2 kernel on x86-64 CPUs
// that have the crc32 instruction, and a portable slicing-by-8 table kernel
// everywhere else. Crc32cExtend picks one the first time it runs; the choice
// never changes a checksum value, only what computing it costs.
#ifndef S4_SRC_UTIL_CRC32_H_
#define S4_SRC_UTIL_CRC32_H_

#include <cstdint>

#include "src/util/bytes.h"

namespace s4 {

// One-shot CRC32C over a buffer.
uint32_t Crc32c(ByteSpan data);

// Incremental form: crc = Crc32cExtend(crc, chunk) chained over chunks,
// starting from Crc32cInit() and finished with Crc32cFinish().
uint32_t Crc32cInit();
uint32_t Crc32cExtend(uint32_t state, ByteSpan data);
uint32_t Crc32cFinish(uint32_t state);

// The kernels behind Crc32cExtend, exposed only so tests and benchmarks can
// cross-check and time each one. Both take and return the same running state
// as Crc32cExtend, so a chain may switch kernels between chunks. Production
// code calls Crc32cExtend and never these.
//
// True when this build targets x86-64 and the CPU has SSE4.2.
bool Crc32cHardwareSupported();
// Requires Crc32cHardwareSupported().
uint32_t Crc32cExtendHardware(uint32_t state, ByteSpan data);
uint32_t Crc32cExtendPortable(uint32_t state, ByteSpan data);

}  // namespace s4

#endif  // S4_SRC_UTIL_CRC32_H_
