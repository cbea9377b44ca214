#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/bf16_matrix.h"

#if defined(__x86_64__) || defined(__i386__)
#define GRAPHITE_GEMM_X86_BF16 1
#include <immintrin.h>
#else
#define GRAPHITE_GEMM_X86_BF16 0
#endif

namespace graphite {

namespace {

/*
 * Micro-kernel vector types. One Vec is 16 floats (a zmm register with
 * AVX-512; the compiler legalises it to narrower ops elsewhere). C rows
 * are only guaranteed element-aligned (gemmBlockSerial accepts raw
 * pointers), so stores to C go through the unaligned VecU flavour, while
 * packed panels — always 64-byte aligned — use the aligned Vec loads.
 */
typedef Feature Vec __attribute__((vector_size(64), may_alias));
typedef Feature VecU
    __attribute__((vector_size(64), aligned(4), may_alias));

constexpr std::size_t kVecLanes = sizeof(Vec) / sizeof(Feature);
constexpr std::size_t kNRV = kGemmNR / kVecLanes;
static_assert(kGemmNR % kVecLanes == 0);
/** Column panels per parallel N tile. */
constexpr std::size_t kPanelsPerTile = kGemmTileN / kGemmNR;
static_assert(kGemmTileN % kGemmNR == 0 && kGemmTileM % kGemmMR == 0);

/**
 * Register-tile micro-kernel: C[0..Rows) x [0..nValid) (+)= Ap · Bp over
 * one KC slice. Ap is a packed MR-wide A panel (k-major, MR stride even
 * when Rows < MR), Bp a packed NR-wide B panel. The Rows x NR
 * accumulator tile lives in registers across the whole k loop — the
 * FMA chain the update phase's FLOP rate comes from.
 */
template <std::size_t Rows>
void
microKernel(const Feature *ap, const Feature *bp, std::size_t kc,
            Feature *c, std::size_t cStride, std::size_t nValid,
            bool accumulate)
{
    // The unroll pragmas are load-bearing: -O2 alone leaves these
    // constant-trip loops rolled, which demotes the accumulator tile to
    // the stack and roughly quarters the FLOP rate. Fully unrolled, the
    // tile lives in zmm registers for the whole k loop.
    Vec acc[Rows][kNRV];
    #pragma GCC unroll 8
    for (std::size_t i = 0; i < Rows; ++i)
        #pragma GCC unroll 2
        for (std::size_t v = 0; v < kNRV; ++v)
            acc[i][v] = Vec{};

    for (std::size_t kk = 0; kk < kc; ++kk) {
        const Vec *bv = reinterpret_cast<const Vec *>(bp + kk * kGemmNR);
        const Feature *a = ap + kk * kGemmMR;
        #pragma GCC unroll 8
        for (std::size_t i = 0; i < Rows; ++i) {
            // vector * scalar (not a materialised broadcast vector):
            // GCC folds the A element into the FMA's memory operand as
            // an embedded broadcast, which runs on the load ports. A
            // separate vbroadcastss would occupy the shuffle port and
            // steal FMA issue slots.
            #pragma GCC unroll 2
            for (std::size_t v = 0; v < kNRV; ++v)
                acc[i][v] += bv[v] * a[i];
        }
    }

    if (nValid == kGemmNR) {
        #pragma GCC unroll 8
        for (std::size_t i = 0; i < Rows; ++i) {
            VecU *cv = reinterpret_cast<VecU *>(c + i * cStride);
            #pragma GCC unroll 2
            for (std::size_t v = 0; v < kNRV; ++v) {
                if (accumulate)
                    cv[v] += acc[i][v];
                else
                    cv[v] = acc[i][v];
            }
        }
    } else {
        // Ragged right edge: spill the tile row and copy the valid
        // prefix (the packed B padding guarantees the lanes are exact).
        alignas(64) Feature tmp[kGemmNR];
        for (std::size_t i = 0; i < Rows; ++i) {
            for (std::size_t v = 0; v < kNRV; ++v)
                *reinterpret_cast<Vec *>(tmp + v * kVecLanes) = acc[i][v];
            Feature *cRow = c + i * cStride;
            if (accumulate) {
                #pragma omp simd
                for (std::size_t j = 0; j < nValid; ++j)
                    cRow[j] += tmp[j];
            } else {
                #pragma omp simd
                for (std::size_t j = 0; j < nValid; ++j)
                    cRow[j] = tmp[j];
            }
        }
    }
}

/** Ragged bottom edge: dispatch to the matching register tile height. */
void
microDispatch(std::size_t rows, const Feature *ap, const Feature *bp,
              std::size_t kc, Feature *c, std::size_t cStride,
              std::size_t nValid, bool accumulate)
{
    switch (rows) {
      case 1: microKernel<1>(ap, bp, kc, c, cStride, nValid, accumulate);
        break;
      case 2: microKernel<2>(ap, bp, kc, c, cStride, nValid, accumulate);
        break;
      case 3: microKernel<3>(ap, bp, kc, c, cStride, nValid, accumulate);
        break;
      case 4: microKernel<4>(ap, bp, kc, c, cStride, nValid, accumulate);
        break;
      case 5: microKernel<5>(ap, bp, kc, c, cStride, nValid, accumulate);
        break;
      case 6: microKernel<6>(ap, bp, kc, c, cStride, nValid, accumulate);
        break;
      case 7: microKernel<7>(ap, bp, kc, c, cStride, nValid, accumulate);
        break;
      default:
        microKernel<kGemmMR>(ap, bp, kc, c, cStride, nValid, accumulate);
        break;
    }
}

/**
 * Pack @p mLen row-major rows (base pointer + stride) into MR-wide
 * k-major A panels for one KC slice, zero-padding the last panel's rows.
 */
void
packARowMajor(const Feature *aBase, std::size_t aStride, std::size_t mLen,
              std::size_t k0, std::size_t kcLen, Feature *ap)
{
    for (std::size_t ip = 0; ip * kGemmMR < mLen; ++ip) {
        Feature *panel = ap + ip * kcLen * kGemmMR;
        const std::size_t rows = std::min(kGemmMR, mLen - ip * kGemmMR);
        for (std::size_t i = 0; i < rows; ++i) {
            const Feature *src =
                aBase + (ip * kGemmMR + i) * aStride + k0;
            for (std::size_t kk = 0; kk < kcLen; ++kk)
                panel[kk * kGemmMR + i] = src[kk];
        }
        for (std::size_t i = rows; i < kGemmMR; ++i) {
            for (std::size_t kk = 0; kk < kcLen; ++kk)
                panel[kk * kGemmMR + i] = 0.0f;
        }
    }
}

/**
 * Pack A panels for TN mode, where the effective A(m, k) is the stored
 * a(k, m): each k step copies MR consecutive floats of a row.
 */
void
packAColMajor(const DenseMatrix &a, std::size_t m0, std::size_t mLen,
              std::size_t k0, std::size_t kcLen, Feature *ap)
{
    for (std::size_t ip = 0; ip * kGemmMR < mLen; ++ip) {
        Feature *panel = ap + ip * kcLen * kGemmMR;
        const std::size_t rows = std::min(kGemmMR, mLen - ip * kGemmMR);
        for (std::size_t kk = 0; kk < kcLen; ++kk) {
            const Feature *src = a.row(k0 + kk) + m0 + ip * kGemmMR;
            Feature *dst = panel + kk * kGemmMR;
            for (std::size_t i = 0; i < rows; ++i)
                dst[i] = src[i];
            for (std::size_t i = rows; i < kGemmMR; ++i)
                dst[i] = 0.0f;
        }
    }
}

/*
 * ---- bf16-in / fp32-accumulate micro-kernels -------------------------
 *
 * Operands arrive as k-pair uint32 words: low 16 bits hold bf16 element
 * 2kp, high 16 bits element 2kp+1 (see GemmPlan). Each k step of the
 * kernel consumes one pair, so a KC slice takes kBlockPairs iterations.
 * The native kernel feeds the pairs to vdpbf16ps (two products summed
 * into an fp32 lane per instruction); the emulated kernel widens each
 * half to fp32 by bit shifts — bf16 -> fp32 is exact — and runs two
 * FMAs, so both paths accumulate in fp32 and agree to fp32 rounding.
 */

/** Integer twin of Vec for the emulated widening shifts. */
typedef std::uint32_t VecI __attribute__((vector_size(64), may_alias));
static_assert(kNRV == 2, "bf16 kernels assume NR = two zmm vectors");

inline Feature
floatFromBits(std::uint32_t bits)
{
    Feature out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

/**
 * Portable bf16 micro-kernel: same register-tile shape as microKernel,
 * with each k-pair contributing two widening FMAs per accumulator.
 */
template <std::size_t Rows>
void
microKernelBf16Emu(const std::uint32_t *ap, const std::uint32_t *bp,
                   std::size_t kcPairs, Feature *c, std::size_t cStride,
                   std::size_t nValid, bool accumulate)
{
    Vec acc[Rows][kNRV];
    #pragma GCC unroll 8
    for (std::size_t i = 0; i < Rows; ++i)
        #pragma GCC unroll 2
        for (std::size_t v = 0; v < kNRV; ++v)
            acc[i][v] = Vec{};

    for (std::size_t kp = 0; kp < kcPairs; ++kp) {
        const VecI *bv =
            reinterpret_cast<const VecI *>(bp + kp * kGemmNR);
        const std::uint32_t *a = ap + kp * kGemmMR;
        #pragma GCC unroll 8
        for (std::size_t i = 0; i < Rows; ++i) {
            const Feature aLo = floatFromBits(a[i] << 16);
            const Feature aHi = floatFromBits(a[i] & 0xffff0000u);
            // Widening shifts spelled inline: a 64-byte Vec return
            // across a function boundary trips -Wpsabi on non-AVX512
            // targets. Low half = element 2kp, high half = 2kp+1.
            #pragma GCC unroll 2
            for (std::size_t v = 0; v < kNRV; ++v) {
                acc[i][v] += (Vec)(bv[v] << 16) * aLo;
                acc[i][v] += (Vec)(bv[v] & 0xffff0000u) * aHi;
            }
        }
    }

    if (nValid == kGemmNR) {
        #pragma GCC unroll 8
        for (std::size_t i = 0; i < Rows; ++i) {
            VecU *cv = reinterpret_cast<VecU *>(c + i * cStride);
            #pragma GCC unroll 2
            for (std::size_t v = 0; v < kNRV; ++v) {
                if (accumulate)
                    cv[v] += acc[i][v];
                else
                    cv[v] = acc[i][v];
            }
        }
    } else {
        alignas(64) Feature tmp[kGemmNR];
        for (std::size_t i = 0; i < Rows; ++i) {
            for (std::size_t v = 0; v < kNRV; ++v)
                *reinterpret_cast<Vec *>(tmp + v * kVecLanes) = acc[i][v];
            Feature *cRow = c + i * cStride;
            if (accumulate) {
                #pragma omp simd
                for (std::size_t j = 0; j < nValid; ++j)
                    cRow[j] += tmp[j];
            } else {
                #pragma omp simd
                for (std::size_t j = 0; j < nValid; ++j)
                    cRow[j] = tmp[j];
            }
        }
    }
}

#if GRAPHITE_GEMM_X86_BF16

/**
 * Native AVX512-BF16 micro-kernel: one vdpbf16ps per (row, B vector)
 * per k-pair — the A word broadcast to every lane, the B vector holding
 * 16 column pairs. Compiled with a target attribute so the portable
 * build (GRAPHITE_NATIVE_ARCH=OFF) still carries it; only dispatched
 * after a cpuid check.
 */
template <std::size_t Rows>
__attribute__((target("avx512f,avx512bw,avx512vl,avx512bf16")))
void
microKernelBf16Native(const std::uint32_t *ap, const std::uint32_t *bp,
                      std::size_t kcPairs, Feature *c, std::size_t cStride,
                      std::size_t nValid, bool accumulate)
{
    __m512 acc[Rows][kNRV];
    #pragma GCC unroll 8
    for (std::size_t i = 0; i < Rows; ++i) {
        acc[i][0] = _mm512_setzero_ps();
        acc[i][1] = _mm512_setzero_ps();
    }

    for (std::size_t kp = 0; kp < kcPairs; ++kp) {
        const std::uint32_t *b = bp + kp * kGemmNR;
        const __m512bh b0 = (__m512bh)_mm512_loadu_si512(b);
        const __m512bh b1 = (__m512bh)_mm512_loadu_si512(b + kVecLanes);
        const std::uint32_t *a = ap + kp * kGemmMR;
        #pragma GCC unroll 8
        for (std::size_t i = 0; i < Rows; ++i) {
            const __m512bh av =
                (__m512bh)_mm512_set1_epi32(static_cast<int>(a[i]));
            acc[i][0] = _mm512_dpbf16_ps(acc[i][0], av, b0);
            acc[i][1] = _mm512_dpbf16_ps(acc[i][1], av, b1);
        }
    }

    if (nValid == kGemmNR) {
        #pragma GCC unroll 8
        for (std::size_t i = 0; i < Rows; ++i) {
            Feature *cRow = c + i * cStride;
            #pragma GCC unroll 2
            for (std::size_t v = 0; v < kNRV; ++v) {
                __m512 res = acc[i][v];
                if (accumulate)
                    res = _mm512_add_ps(
                        _mm512_loadu_ps(cRow + v * kVecLanes), res);
                _mm512_storeu_ps(cRow + v * kVecLanes, res);
            }
        }
    } else {
        alignas(64) Feature tmp[kGemmNR];
        for (std::size_t i = 0; i < Rows; ++i) {
            _mm512_store_ps(tmp, acc[i][0]);
            _mm512_store_ps(tmp + kVecLanes, acc[i][1]);
            Feature *cRow = c + i * cStride;
            if (accumulate) {
                for (std::size_t j = 0; j < nValid; ++j)
                    cRow[j] += tmp[j];
            } else {
                for (std::size_t j = 0; j < nValid; ++j)
                    cRow[j] = tmp[j];
            }
        }
    }
}

#endif // GRAPHITE_GEMM_X86_BF16

/**
 * Startup value of the emulation override: GRAPHITE_BF16_EMULATE set to
 * anything but "0" forces the portable kernel (the CI parity legs use
 * this so the emulated path is tested on bf16-capable runners too).
 */
bool
bf16EmulateFromEnv()
{
    // graphite-lint: allow(mt-unsafe) read once into a function-local
    // static at first GEMM dispatch, never from pool workers.
    const char *env = std::getenv("GRAPHITE_BF16_EMULATE");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
}

/** Atomic so tests can flip it around concurrently-timed GEMMs. */
std::atomic<bool> &
bf16EmulatedFlag()
{
    static std::atomic<bool> flag{bf16EmulateFromEnv()};
    return flag;
}

/** Ragged bottom edge dispatch for the bf16 kernels. */
void
microDispatchBf16(bool native, std::size_t rows, const std::uint32_t *ap,
                  const std::uint32_t *bp, std::size_t kcPairs, Feature *c,
                  std::size_t cStride, std::size_t nValid, bool accumulate)
{
#if GRAPHITE_GEMM_X86_BF16
    if (native) {
        switch (rows) {
          case 1: microKernelBf16Native<1>(ap, bp, kcPairs, c, cStride,
                                           nValid, accumulate);
            break;
          case 2: microKernelBf16Native<2>(ap, bp, kcPairs, c, cStride,
                                           nValid, accumulate);
            break;
          case 3: microKernelBf16Native<3>(ap, bp, kcPairs, c, cStride,
                                           nValid, accumulate);
            break;
          case 4: microKernelBf16Native<4>(ap, bp, kcPairs, c, cStride,
                                           nValid, accumulate);
            break;
          case 5: microKernelBf16Native<5>(ap, bp, kcPairs, c, cStride,
                                           nValid, accumulate);
            break;
          case 6: microKernelBf16Native<6>(ap, bp, kcPairs, c, cStride,
                                           nValid, accumulate);
            break;
          case 7: microKernelBf16Native<7>(ap, bp, kcPairs, c, cStride,
                                           nValid, accumulate);
            break;
          default:
            microKernelBf16Native<kGemmMR>(ap, bp, kcPairs, c, cStride,
                                           nValid, accumulate);
            break;
        }
        return;
    }
#else
    (void)native;
#endif
    switch (rows) {
      case 1: microKernelBf16Emu<1>(ap, bp, kcPairs, c, cStride, nValid,
                                    accumulate);
        break;
      case 2: microKernelBf16Emu<2>(ap, bp, kcPairs, c, cStride, nValid,
                                    accumulate);
        break;
      case 3: microKernelBf16Emu<3>(ap, bp, kcPairs, c, cStride, nValid,
                                    accumulate);
        break;
      case 4: microKernelBf16Emu<4>(ap, bp, kcPairs, c, cStride, nValid,
                                    accumulate);
        break;
      case 5: microKernelBf16Emu<5>(ap, bp, kcPairs, c, cStride, nValid,
                                    accumulate);
        break;
      case 6: microKernelBf16Emu<6>(ap, bp, kcPairs, c, cStride, nValid,
                                    accumulate);
        break;
      case 7: microKernelBf16Emu<7>(ap, bp, kcPairs, c, cStride, nValid,
                                    accumulate);
        break;
      default:
        microKernelBf16Emu<kGemmMR>(ap, bp, kcPairs, c, cStride, nValid,
                                    accumulate);
        break;
    }
}

/**
 * Pack row-major A rows into MR-wide k-pair panels, rounding to bf16:
 * word (kp, i) pairs elements (2kp, 2kp+1) of row i, odd tails and
 * missing rows zero-padded. Mirrors packARowMajor's panel walk.
 */
void
packARowMajorBf16(const Feature *aBase, std::size_t aStride,
                  std::size_t mLen, std::size_t k0, std::size_t kcLen,
                  std::uint32_t *ap)
{
    const std::size_t pairs = (kcLen + 1) / 2;
    for (std::size_t ip = 0; ip * kGemmMR < mLen; ++ip) {
        std::uint32_t *panel = ap + ip * pairs * kGemmMR;
        const std::size_t rows = std::min(kGemmMR, mLen - ip * kGemmMR);
        for (std::size_t i = 0; i < rows; ++i) {
            const Feature *src =
                aBase + (ip * kGemmMR + i) * aStride + k0;
            for (std::size_t kp = 0; kp < pairs; ++kp) {
                const std::uint32_t lo = bf16FromFloat(src[2 * kp]);
                const std::uint32_t hi =
                    2 * kp + 1 < kcLen ? bf16FromFloat(src[2 * kp + 1])
                                       : 0u;
                panel[kp * kGemmMR + i] = lo | (hi << 16);
            }
        }
        for (std::size_t i = rows; i < kGemmMR; ++i) {
            for (std::size_t kp = 0; kp < pairs; ++kp)
                panel[kp * kGemmMR + i] = 0u;
        }
    }
}

/** Bf16 A-pair packing for TN mode (effective A(m, k) = a(k, m)). */
void
packAColMajorBf16(const DenseMatrix &a, std::size_t m0, std::size_t mLen,
                  std::size_t k0, std::size_t kcLen, std::uint32_t *ap)
{
    const std::size_t pairs = (kcLen + 1) / 2;
    for (std::size_t ip = 0; ip * kGemmMR < mLen; ++ip) {
        std::uint32_t *panel = ap + ip * pairs * kGemmMR;
        const std::size_t rows = std::min(kGemmMR, mLen - ip * kGemmMR);
        for (std::size_t kp = 0; kp < pairs; ++kp) {
            const Feature *srcLo = a.row(k0 + 2 * kp) + m0 + ip * kGemmMR;
            const Feature *srcHi =
                2 * kp + 1 < kcLen ? a.row(k0 + 2 * kp + 1) + m0 +
                                         ip * kGemmMR
                                   : nullptr;
            std::uint32_t *dst = panel + kp * kGemmMR;
            for (std::size_t i = 0; i < rows; ++i) {
                const std::uint32_t lo = bf16FromFloat(srcLo[i]);
                const std::uint32_t hi =
                    srcHi ? bf16FromFloat(srcHi[i]) : 0u;
                dst[i] = lo | (hi << 16);
            }
            for (std::size_t i = rows; i < kGemmMR; ++i)
                dst[i] = 0u;
        }
    }
}

/** uint32 words of A-pair pack scratch one M tile needs. */
constexpr std::size_t kApPairWords = kGemmTileM * (kGemmKC / 2);

/**
 * The calling thread's A-pack scratch: one M tile x KC slice of fp32
 * panels, and the same as bf16 pair words (a distinct uint32 buffer,
 * so the kernels never type-pun Feature storage). The pooled gemm's
 * tasks and gemmBlockSerial share it (they never run nested on one
 * thread). Grow-only, so repeated GEMMs stay allocation-free once
 * reserveGemmScratch() has run on the thread.
 */
thread_local AlignedBuffer<Feature> apTileScratch;
thread_local AlignedBuffer<std::uint32_t> apPairScratch;

/**
 * Bf16 twin of computeTile: KC slices advance by kBlockPairs pair
 * words, and the kernel choice (native vs emulated) is hoisted out of
 * the block loops.
 */
template <typename PackASlice>
void
computeTileBf16(const GemmPlan &plan, Feature *cBase, std::size_t cStride,
                std::size_t mLen, std::size_t jp0, std::size_t jp1,
                GemmAccumulate acc, std::uint32_t *apBuf,
                PackASlice &&packASlice)
{
    const bool native = bf16GemmIsNative();
    const std::size_t nTotal = plan.n();
    for (std::size_t kb = 0; kb < plan.numKBlocks(); ++kb) {
        const std::size_t kcLen = plan.kBlockLen(kb);
        const std::size_t pairs = plan.kBlockPairs(kb);
        packASlice(kb * kGemmKC, kcLen, apBuf);
        const bool accumulate =
            kb > 0 || acc == GemmAccumulate::Add;
        for (std::size_t jp = jp0; jp < jp1; ++jp) {
            const std::uint32_t *bp = plan.pairPanel(kb, jp);
            const std::size_t n0 = jp * kGemmNR;
            const std::size_t nValid = std::min(kGemmNR, nTotal - n0);
            for (std::size_t ip = 0; ip * kGemmMR < mLen; ++ip) {
                const std::size_t rows =
                    std::min(kGemmMR, mLen - ip * kGemmMR);
                microDispatchBf16(native, rows,
                                  apBuf + ip * pairs * kGemmMR, bp, pairs,
                                  cBase + ip * kGemmMR * cStride + n0,
                                  cStride, nValid, accumulate);
            }
        }
    }
}

/**
 * Serial tile driver: C rows [0, mLen) x panel columns [jp0, jp1) of
 * the effective product, looping KC slices of @p plan. @p packASlice
 * packs the tile's A rows for one slice into @p apBuf (capacity at
 * least roundUp(mLen, MR) * KC floats); the packed slice is then reused
 * across every column panel of the tile.
 */
template <typename PackASlice>
void
computeTile(const GemmPlan &plan, Feature *cBase, std::size_t cStride,
            std::size_t mLen, std::size_t jp0, std::size_t jp1,
            GemmAccumulate acc, Feature *apBuf, PackASlice &&packASlice)
{
    const std::size_t nTotal = plan.n();
    for (std::size_t kb = 0; kb < plan.numKBlocks(); ++kb) {
        const std::size_t kcLen = plan.kBlockLen(kb);
        packASlice(kb * kGemmKC, kcLen, apBuf);
        const bool accumulate =
            kb > 0 || acc == GemmAccumulate::Add;
        for (std::size_t jp = jp0; jp < jp1; ++jp) {
            const Feature *bp = plan.panel(kb, jp);
            const std::size_t n0 = jp * kGemmNR;
            const std::size_t nValid = std::min(kGemmNR, nTotal - n0);
            for (std::size_t ip = 0; ip * kGemmMR < mLen; ++ip) {
                const std::size_t rows =
                    std::min(kGemmMR, mLen - ip * kGemmMR);
                microDispatch(rows, apBuf + ip * kcLen * kGemmMR, bp,
                              kcLen, cBase + ip * kGemmMR * cStride + n0,
                              cStride, nValid, accumulate);
            }
        }
    }
}

void
checkShapes(GemmMode mode, const DenseMatrix &a, const DenseMatrix &b,
            const DenseMatrix &c)
{
    switch (mode) {
      case GemmMode::NN:
        GRAPHITE_ASSERT(a.rows() == c.rows() && a.cols() == b.rows() &&
                            b.cols() == c.cols(),
                        "GEMM NN shape mismatch");
        break;
      case GemmMode::NT:
        GRAPHITE_ASSERT(a.rows() == c.rows() && a.cols() == b.cols() &&
                            b.rows() == c.cols(),
                        "GEMM NT shape mismatch");
        break;
      case GemmMode::TN:
        GRAPHITE_ASSERT(a.cols() == c.rows() && a.rows() == b.rows() &&
                            b.cols() == c.cols(),
                        "GEMM TN shape mismatch");
        break;
    }
}

void
checkPlanShapes(GemmMode mode, const DenseMatrix &a, const GemmPlan &plan,
                const DenseMatrix &c)
{
    const std::size_t effM =
        mode == GemmMode::TN ? a.cols() : a.rows();
    const std::size_t effK =
        mode == GemmMode::TN ? a.rows() : a.cols();
    GRAPHITE_ASSERT(effM == c.rows() && effK == plan.k() &&
                        plan.n() == c.cols(),
                    "GEMM plan shape mismatch");
}

} // namespace

void
reserveGemmScratch()
{
    if (apTileScratch.size() < kGemmTileM * kGemmKC)
        apTileScratch.resize(kGemmTileM * kGemmKC);
    if (apPairScratch.size() < kApPairWords)
        apPairScratch.resize(kApPairWords);
}

bool
bf16GemmHardwareSupported()
{
#if GRAPHITE_GEMM_X86_BF16
    static const bool supported = __builtin_cpu_supports("avx512bf16");
    return supported;
#else
    return false;
#endif
}

void
setBf16GemmEmulated(bool emulated)
{
    bf16EmulatedFlag().store(emulated, std::memory_order_relaxed);
}

bool
bf16GemmIsNative()
{
    return bf16GemmHardwareSupported() &&
           !bf16EmulatedFlag().load(std::memory_order_relaxed);
}

void
gemm(GemmMode mode, const DenseMatrix &a, const GemmPlan &plan,
     DenseMatrix &c, GemmAccumulate acc)
{
    checkPlanShapes(mode, a, plan, c);
    const std::size_t m = c.rows();
    const std::size_t n = c.cols();
    if (m == 0 || n == 0)
        return;
    GRAPHITE_TRACE_SPAN("gemm");
    {
        obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
        if (metrics.enabled()) {
            static obs::Counter &flops = metrics.counter("gemm.flops");
            flops.add(2 * static_cast<std::uint64_t>(m) * n * plan.k());
        }
    }
    if (plan.k() == 0) {
        // Empty inner dimension: the product is all zeros.
        if (acc == GemmAccumulate::Overwrite)
            c.zero();
        return;
    }

    // 2-D tile grid over C: N tiles in the outer index so consecutive
    // tasks drawn by one thread walk down an N tile and keep its B
    // panels hot in L1/L2 — and so wide-N/short-M shapes (dW) still
    // expose enough tasks to fill the pool.
    const std::size_t mTiles = (m + kGemmTileM - 1) / kGemmTileM;
    const std::size_t nTiles =
        (plan.numColPanels() + kPanelsPerTile - 1) / kPanelsPerTile;
    const std::size_t tasks = mTiles * nTiles;

    // Every worker sizes its pack scratch, task or not (see
    // parallelForChunked), so a GEMM through a cached plan stays
    // allocation-free whichever workers draw its tiles.
    const auto reserve = [] { reserveGemmScratch(); };
    if (plan.precision() == Precision::Bf16) {
        // A is rounded to bf16 pair words during the per-slice pack.
        parallelFor(0, tasks, 1,
                    [&](std::size_t begin, std::size_t end,
                        std::size_t) {
            std::uint32_t *ap = apPairScratch.data();
            for (std::size_t task = begin; task < end; ++task) {
                const std::size_t mt = task % mTiles;
                const std::size_t nt = task / mTiles;
                const std::size_t m0 = mt * kGemmTileM;
                const std::size_t mLen = std::min(kGemmTileM, m - m0);
                const std::size_t jp0 = nt * kPanelsPerTile;
                const std::size_t jp1 =
                    std::min(jp0 + kPanelsPerTile, plan.numColPanels());
                Feature *cBase = c.row(m0);
                if (mode == GemmMode::TN) {
                    computeTileBf16(plan, cBase, c.rowStride(), mLen, jp0,
                                    jp1, acc, ap,
                                    [&](std::size_t k0, std::size_t kcLen,
                                        std::uint32_t *dst) {
                        packAColMajorBf16(a, m0, mLen, k0, kcLen, dst);
                    });
                } else {
                    computeTileBf16(plan, cBase, c.rowStride(), mLen, jp0,
                                    jp1, acc, ap,
                                    [&](std::size_t k0, std::size_t kcLen,
                                        std::uint32_t *dst) {
                        packARowMajorBf16(a.row(m0), a.rowStride(), mLen,
                                          k0, kcLen, dst);
                    });
                }
            }
        }, reserve);
        return;
    }

    parallelFor(0, tasks, 1,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        Feature *ap = apTileScratch.data();
        for (std::size_t task = begin; task < end; ++task) {
            const std::size_t mt = task % mTiles;
            const std::size_t nt = task / mTiles;
            const std::size_t m0 = mt * kGemmTileM;
            const std::size_t mLen = std::min(kGemmTileM, m - m0);
            const std::size_t jp0 = nt * kPanelsPerTile;
            const std::size_t jp1 =
                std::min(jp0 + kPanelsPerTile, plan.numColPanels());
            Feature *cBase = c.row(m0);
            if (mode == GemmMode::TN) {
                computeTile(plan, cBase, c.rowStride(), mLen, jp0, jp1,
                            acc, ap,
                            [&](std::size_t k0, std::size_t kcLen,
                                Feature *dst) {
                    packAColMajor(a, m0, mLen, k0, kcLen, dst);
                });
            } else {
                computeTile(plan, cBase, c.rowStride(), mLen, jp0, jp1,
                            acc, ap,
                            [&](std::size_t k0, std::size_t kcLen,
                                Feature *dst) {
                    packARowMajor(a.row(m0), a.rowStride(), mLen, k0,
                                  kcLen, dst);
                });
            }
        }
    }, reserve);
}

void
gemm(GemmMode mode, const DenseMatrix &a, const DenseMatrix &b,
     DenseMatrix &c, GemmAccumulate acc, Precision precision)
{
    checkShapes(mode, a, b, c);
    const GemmPlan plan(mode, b, precision);
    gemm(mode, a, plan, c, acc);
}

void
gemmBlockSerial(const Feature *aRows, std::size_t rows,
                std::size_t aStride, const GemmPlan &plan, Feature *cRows,
                std::size_t cStride, std::size_t k)
{
    GRAPHITE_ASSERT(plan.k() == k, "block GEMM inner dim mismatch");
    if (rows == 0)
        return;
    if (k == 0) {
        for (std::size_t r = 0; r < rows; ++r)
            std::fill(cRows + r * cStride, cRows + r * cStride + plan.n(),
                      0.0f);
        return;
    }
    // Per-calling-thread pack scratch: the fused kernels call this from
    // inside pool tasks, so no shared state and no nested parallelism.
    reserveGemmScratch();
    if (plan.precision() == Precision::Bf16) {
        for (std::size_t m0 = 0; m0 < rows; m0 += kGemmTileM) {
            const std::size_t mLen = std::min(kGemmTileM, rows - m0);
            computeTileBf16(plan, cRows + m0 * cStride, cStride, mLen, 0,
                            plan.numColPanels(), GemmAccumulate::Overwrite,
                            apPairScratch.data(),
                            [&](std::size_t k0, std::size_t kcLen,
                                std::uint32_t *dst) {
                packARowMajorBf16(aRows + m0 * aStride, aStride, mLen, k0,
                                  kcLen, dst);
            });
        }
        return;
    }
    for (std::size_t m0 = 0; m0 < rows; m0 += kGemmTileM) {
        const std::size_t mLen = std::min(kGemmTileM, rows - m0);
        computeTile(plan, cRows + m0 * cStride, cStride, mLen, 0,
                    plan.numColPanels(), GemmAccumulate::Overwrite,
                    apTileScratch.data(),
                    [&](std::size_t k0, std::size_t kcLen, Feature *dst) {
            packARowMajor(aRows + m0 * aStride, aStride, mLen, k0, kcLen,
                          dst);
        });
    }
}

void
gemmBlockSerial(const Feature *aRows, std::size_t rows, std::size_t aStride,
                const DenseMatrix &b, Feature *cRows, std::size_t cStride,
                std::size_t k)
{
    GRAPHITE_ASSERT(b.rows() == k, "block GEMM inner dim mismatch");
    // Unpacked one-shot path: row-streaming FMA kernel, for callers
    // whose B changes every call so packing would not amortise.
    const std::size_t n = b.cols();
    for (std::size_t r = 0; r < rows; ++r) {
        const Feature *aRow = aRows + r * aStride;
        Feature *cRow = cRows + r * cStride;
        std::fill(cRow, cRow + n, 0.0f);
        for (std::size_t kk = 0; kk < k; ++kk) {
            const Feature av = aRow[kk];
            const Feature *bRow = b.row(kk);
            #pragma omp simd
            for (std::size_t j = 0; j < n; ++j)
                cRow[j] += av * bRow[j];
        }
    }
}

void
gemmReference(GemmMode mode, const DenseMatrix &a, const DenseMatrix &b,
              DenseMatrix &c, GemmAccumulate acc)
{
    checkShapes(mode, a, b, c);
    if (acc == GemmAccumulate::Overwrite)
        c.zero();
    const std::size_t m = c.rows();
    const std::size_t n = c.cols();
    const std::size_t kDim = (mode == GemmMode::TN) ? a.rows() : a.cols();
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t j = 0; j < n; ++j) {
            double sum = 0.0;
            for (std::size_t k = 0; k < kDim; ++k) {
                const Feature av =
                    (mode == GemmMode::TN) ? a.at(k, r) : a.at(r, k);
                const Feature bv =
                    (mode == GemmMode::NT) ? b.at(j, k) : b.at(k, j);
                sum += double{av} * double{bv};
            }
            c.at(r, j) += static_cast<Feature>(sum);
        }
    }
}

} // namespace graphite
