/**
 * @file
 * One-time runtime CPU feature detection for the dispatched kernels.
 *
 * The wire-path kernels (common/crc32c) and the GEMM microkernels
 * (tensor/gemm) pick their fastest implementation once per process:
 * the first query probes the CPU and every later call reads a cached
 * answer. Detection is deliberately conservative — anything the probe
 * cannot positively confirm is reported absent, and the caller falls
 * back to the portable software tier, so a wrong answer can cost speed
 * but never correctness.
 */
#ifndef ROG_COMMON_CPU_FEATURES_HPP
#define ROG_COMMON_CPU_FEATURES_HPP

namespace rog {
namespace cpu {

/**
 * True when the CPU exposes a hardware CRC32C instruction this build
 * can execute: SSE4.2 `crc32` on x86-64, the ARMv8 CRC32 extension
 * (`crc32cx`) on aarch64. Detected once; later calls are a load.
 */
bool hasCrc32c();

/** True when the CPU supports AVX2 *and* FMA3 (the GEMM microkernel
 *  needs both). Detected once; later calls are a load. */
bool hasAvx2Fma();

/** True when the CPU supports AVX-512F (implies 512-bit FMA). */
bool hasAvx512f();

/** True when the CPU supports NEON/ASIMD (always true on aarch64). */
bool hasNeon();

} // namespace cpu
} // namespace rog

#endif // ROG_COMMON_CPU_FEATURES_HPP
