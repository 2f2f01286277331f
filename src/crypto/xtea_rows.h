// The builds of XteaEncryptRows and XteaDecryptRows (xtea.h), one per
// x86-64 level. Internal to src/crypto: tests call each build directly, and
// bench_micro times each one and labels the one that runs.

#ifndef SRC_CRYPTO_XTEA_ROWS_H_
#define SRC_CRYPTO_XTEA_ROWS_H_

#include <cstddef>
#include <cstdint>

#include "src/crypto/xtea.h"

namespace itc::crypto::rows {

// The x86-64 micro-architecture levels there is a build for, narrowest
// first: SSE2 (every x86-64 CPU), AVX2 and AVX-512.
enum class Level { kBaseline, kV3, kV4 };
inline constexpr Level kLevels[] = {Level::kBaseline, Level::kV3, Level::kV4};

struct Build {
  const char* name;  // "x86-64", "x86-64-v3" or "x86-64-v4"
  void (*encrypt)(const XteaSchedule& schedule, const uint8_t* chain, uint8_t* data,
                  size_t blocks);
  void (*decrypt)(const XteaSchedule& schedule, const uint8_t* chain, const uint8_t* in,
                  uint8_t* out, size_t blocks);
};

// Whether this CPU can run the build for `level`; always true for kBaseline.
bool CpuSupports(Level level);

// The build for `level`. Only call its functions if CpuSupports(level).
const Build& BuildFor(Level level);

// The build XteaEncryptRows and XteaDecryptRows run: the widest the CPU
// supports, chosen from cpuid on first use.
const Build& ActiveBuild();

}  // namespace itc::crypto::rows

#endif  // SRC_CRYPTO_XTEA_ROWS_H_
