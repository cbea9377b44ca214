/**
 * @file
 * Tests of the end-to-end bf16 compute path: scalar rounding edge
 * cases (RNE ties, NaN/Inf, denormals, round-trip bound), the packed
 * bf16 GEMM against an fp64 oracle over ragged shapes on both dispatch
 * targets (native and emulated), bf16 aggregation and fused-layer
 * consistency, gather-byte accounting (the 2x traffic claim), and a
 * full-model gradient-parity sweep at bf16 with documented relaxed
 * tolerances.
 *
 * Every test here carries the `bf16` ctest label; CI re-runs the label
 * with GRAPHITE_BF16_EMULATE=1 so the emulated widening kernel is
 * exercised even on AVX512-BF16 hardware.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "gnn/gnn_model.h"
#include "graph/generators.h"
#include "graph/partition/partitioner.h"
#include "kernels/aggregation.h"
#include "kernels/fused_layer.h"
#include "obs/metrics.h"
#include "tensor/bf16_matrix.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite {
namespace {

CsrGraph
testGraph()
{
    return generateErdosRenyi(150, 1200, false, 97);
}

float
roundBf16(float x)
{
    return bf16ToFloat(bf16FromFloat(x));
}

std::uint32_t
floatBits(float x)
{
    std::uint32_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
}

float
fromBits(std::uint32_t bits)
{
    float x;
    std::memcpy(&x, &bits, sizeof(x));
    return x;
}

// ---------------------------------------------------------------------
// Scalar conversion: the edges of round-to-nearest-even.
// ---------------------------------------------------------------------

TEST(Bf16Rounding, ExactValuesPassThrough)
{
    // Anything already representable in 8 exponent + 7 mantissa bits
    // must survive the round trip bit-exactly.
    for (const float x : {0.0f, 1.0f, -1.0f, 0.5f, -2.5f, 1024.0f,
                          0.15625f, -3.140625f}) {
        EXPECT_EQ(floatBits(roundBf16(x)), floatBits(x)) << x;
    }
    // Negative zero keeps its sign.
    EXPECT_EQ(floatBits(roundBf16(-0.0f)), floatBits(-0.0f));
}

TEST(Bf16Rounding, TiesGoToEven)
{
    // 0x...8000 is exactly halfway between two bf16 neighbors. With the
    // keep bit (bit 16) clear the tie must round *down* (stay even)...
    EXPECT_EQ(bf16FromFloat(fromBits(0x3f808000u)), 0x3f80u);
    // ...and with the keep bit set it must round *up* to the next even.
    EXPECT_EQ(bf16FromFloat(fromBits(0x3f818000u)), 0x3f82u);
    // One ulp above the halfway point always rounds up.
    EXPECT_EQ(bf16FromFloat(fromBits(0x3f808001u)), 0x3f81u);
    // One below always rounds down.
    EXPECT_EQ(bf16FromFloat(fromBits(0x3f807fffu)), 0x3f80u);
}

TEST(Bf16Rounding, InfinityAndNaN)
{
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(bf16FromFloat(inf), 0x7f80u);
    EXPECT_EQ(bf16FromFloat(-inf), 0xff80u);
    EXPECT_TRUE(std::isinf(roundBf16(inf)));

    // Quiet NaN stays NaN.
    EXPECT_TRUE(std::isnan(roundBf16(std::nanf(""))));
    // Signaling NaN (low-mantissa-only payload) must stay NaN — the
    // naive RNE increment would carry it into the exponent and produce
    // +Inf. The payload is quietened instead.
    const float snan = fromBits(0x7f800001u);
    EXPECT_TRUE(std::isnan(roundBf16(snan)));
    const float negSnan = fromBits(0xff800001u);
    EXPECT_TRUE(std::isnan(roundBf16(negSnan)));
    EXPECT_TRUE(std::signbit(roundBf16(negSnan)));

    // Values beyond the largest finite bf16 round to Inf (matching
    // hardware vcvtneps2bf16), not to a garbage finite value.
    EXPECT_TRUE(std::isinf(roundBf16(FLT_MAX)));
    EXPECT_TRUE(std::isinf(roundBf16(-FLT_MAX)));
    EXPECT_TRUE(std::signbit(roundBf16(-FLT_MAX)));
}

TEST(Bf16Rounding, Denormals)
{
    // fp32 denormals map onto bf16 denormals (same exponent range, top
    // 7 mantissa bits), so the round trip obeys the absolute bound of
    // half a denormal ulp (2^-133) instead of a relative one.
    const float tiny = fromBits(0x00018000u); // denormal, tie pattern
    const float rt = roundBf16(tiny);
    EXPECT_LE(std::abs(rt - tiny), std::ldexp(1.0f, -133));
    // The smallest denormal rounds to zero, preserving sign.
    EXPECT_EQ(bf16FromFloat(fromBits(0x00000001u)), 0x0000u);
    EXPECT_EQ(bf16FromFloat(fromBits(0x80000001u)), 0x8000u);
}

TEST(Bf16Rounding, RoundTripRelativeBound)
{
    // RNE to 7 explicit mantissa bits: |x - rt(x)| <= 2^-8 |x| for all
    // normal x. Walk a deterministic pseudo-random sample.
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 10000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const auto mantissa = static_cast<std::uint32_t>(state >> 41);
        const std::uint32_t exponent = 64 + (state >> 33 & 0x7fu);
        const std::uint32_t sign = static_cast<std::uint32_t>(state >> 63)
                                   << 31;
        const float x =
            fromBits(sign | exponent << 23 | (mantissa & 0x7fffffu));
        const float rt = roundBf16(x);
        EXPECT_LE(std::abs(rt - x), std::ldexp(std::abs(x), -8))
            << "bits 0x" << std::hex << floatBits(x);
    }
}

TEST(Bf16Rounding, RowConvertersMatchScalar)
{
    std::vector<Feature> src(123);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = std::sin(static_cast<float>(i) * 0.37f) * 40.0f;
    std::vector<std::uint16_t> packed(src.size());
    convertRowToBf16(src.data(), src.size(), packed.data());
    std::vector<Feature> restored(src.size());
    convertRowFromBf16(packed.data(), src.size(), restored.data());
    for (std::size_t i = 0; i < src.size(); ++i) {
        EXPECT_EQ(packed[i], bf16FromFloat(src[i])) << i;
        EXPECT_EQ(floatBits(restored[i]), floatBits(roundBf16(src[i])))
            << i;
    }
}

TEST(Bf16Matrix, RoundTripAndPaddingStayZero)
{
    DenseMatrix dense(37, 45); // ragged against both strides
    dense.fillUniform(-8.0f, 8.0f, 21);
    Bf16Matrix packed(37, 45);
    packed.fromDense(dense);
    DenseMatrix restored(37, 45);
    packed.toDense(restored);
    for (std::size_t r = 0; r < 37; ++r) {
        for (std::size_t c = 0; c < 45; ++c) {
            EXPECT_EQ(floatBits(restored.at(r, c)),
                      floatBits(roundBf16(dense.at(r, c))))
                << r << "," << c;
        }
        // The gather kernels read rows at full stride; padding must be
        // zero so over-reads contribute nothing.
        for (std::size_t c = 45; c < packed.rowStride(); ++c)
            EXPECT_EQ(packed.row(r)[c], 0u) << r << "," << c;
    }
}

// ---------------------------------------------------------------------
// Packed bf16 GEMM vs an fp64 oracle on the rounded operands.
// ---------------------------------------------------------------------

/**
 * Reference result in double precision from bf16-rounded operands: the
 * kernel rounds A and B to bf16 at pack time and accumulates the exact
 * bf16xbf16 products (each exact in fp32) in fp32, so the only
 * divergence from this oracle is fp32 accumulation order — a few ulp.
 */
std::vector<double>
oracleGemm(GemmMode mode, const DenseMatrix &a, const DenseMatrix &b,
           std::size_t m, std::size_t n, std::size_t k)
{
    const auto aAt = [&](std::size_t i, std::size_t p) {
        return mode == GemmMode::TN ? a.at(p, i) : a.at(i, p);
    };
    const auto bAt = [&](std::size_t p, std::size_t j) {
        return mode == GemmMode::NT ? b.at(j, p) : b.at(p, j);
    };
    std::vector<double> c(m * n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t p = 0; p < k; ++p) {
            const double av = roundBf16(aAt(i, p));
            for (std::size_t j = 0; j < n; ++j)
                c[i * n + j] += av * roundBf16(bAt(p, j));
        }
    }
    return c;
}

/** (mode, m, n, k) — odd K, K=1 and tail panels all represented. */
using GemmShape = std::tuple<int, int, int, int>;

class Bf16GemmOracle : public ::testing::TestWithParam<GemmShape>
{
};

TEST_P(Bf16GemmOracle, MatchesFp64OnBothKernels)
{
    const auto [modeInt, m, n, k] = GetParam();
    const auto mode = static_cast<GemmMode>(modeInt);
    DenseMatrix a;
    DenseMatrix b;
    switch (mode) {
      case GemmMode::NN:
        a = DenseMatrix(m, k);
        b = DenseMatrix(k, n);
        break;
      case GemmMode::NT:
        a = DenseMatrix(m, k);
        b = DenseMatrix(n, k);
        break;
      case GemmMode::TN:
        a = DenseMatrix(k, m);
        b = DenseMatrix(k, n);
        break;
    }
    a.fillUniform(-1.0f, 1.0f, 31);
    b.fillUniform(-1.0f, 1.0f, 32);
    const std::vector<double> ref = oracleGemm(
        mode, a, b, static_cast<std::size_t>(m),
        static_cast<std::size_t>(n), static_cast<std::size_t>(k));

    // Accumulation-order slack only: a handful of fp32 ulp per k term.
    const double tol = 1e-6 * k + 1e-6;
    for (const bool emulated : {false, true}) {
        setBf16GemmEmulated(emulated);
        DenseMatrix c(m, n);
        gemm(mode, a, b, c, GemmAccumulate::Overwrite, Precision::Bf16);
        double maxErr = 0.0;
        for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
                maxErr = std::max(
                    maxErr, std::abs(static_cast<double>(c.at(i, j)) -
                                     ref[static_cast<std::size_t>(i) * n +
                                         j]));
            }
        }
        EXPECT_LE(maxErr, tol)
            << (emulated ? "emulated" : "dispatched") << " kernel";
    }
    setBf16GemmEmulated(false);
}

std::string
gemmShapeName(const ::testing::TestParamInfo<GemmShape> &info)
{
    const auto [mode, m, n, k] = info.param;
    const char *names[] = {"NN", "NT", "TN"};
    return std::string(names[mode]) + "_" + std::to_string(m) + "x" +
           std::to_string(n) + "x" + std::to_string(k);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Bf16GemmOracle,
    ::testing::Values(
        GemmShape{0, 64, 128, 128},  // exact register tiles, even K
        GemmShape{0, 70, 130, 129},  // ragged M/N tails, odd K
        GemmShape{0, 8, 32, 1},      // K=1: the odd-pair zero fill
        GemmShape{0, 9, 33, 2},      // single-row/col tail panels
        GemmShape{0, 1, 1, 3},       // degenerate
        GemmShape{0, 100, 20, 64},   // narrow N
        GemmShape{1, 70, 130, 129},  // NT, same ragged shape
        GemmShape{1, 33, 15, 7},
        GemmShape{2, 70, 130, 129},  // TN, same ragged shape
        GemmShape{2, 15, 257, 40}),
    gemmShapeName);

TEST(Bf16Gemm, AccumulateModeAddsToExisting)
{
    DenseMatrix a(21, 19);
    DenseMatrix b(19, 35);
    a.fillUniform(-1.0f, 1.0f, 41);
    b.fillUniform(-1.0f, 1.0f, 42);
    DenseMatrix once(21, 35);
    gemm(GemmMode::NN, a, b, once, GemmAccumulate::Overwrite,
         Precision::Bf16);
    DenseMatrix twice(21, 35);
    gemm(GemmMode::NN, a, b, twice, GemmAccumulate::Overwrite,
         Precision::Bf16);
    gemm(GemmMode::NN, a, b, twice, GemmAccumulate::Add,
         Precision::Bf16);
    for (std::size_t i = 0; i < 21; ++i) {
        for (std::size_t j = 0; j < 35; ++j) {
            EXPECT_NEAR(twice.at(i, j), 2.0f * once.at(i, j), 1e-4f)
                << i << "," << j;
        }
    }
}

TEST(Bf16Gemm, BlockSerialMatchesParallelPath)
{
    DenseMatrix a(47, 24);
    DenseMatrix b(24, 40);
    a.fillUniform(-1.0f, 1.0f, 51);
    b.fillUniform(-1.0f, 1.0f, 52);
    GemmPlan plan;
    plan.pack(GemmMode::NN, b, Precision::Bf16);
    EXPECT_EQ(plan.precision(), Precision::Bf16);
    EXPECT_EQ(plan.validateFor(24, 40), nullptr);

    DenseMatrix parallel(47, 40);
    gemm(GemmMode::NN, a, plan, parallel);
    DenseMatrix serial(47, 40);
    gemmBlockSerial(a.row(0), 47, a.rowStride(), plan, serial.row(0),
                    serial.rowStride(), 24);
    for (std::size_t i = 0; i < 47; ++i) {
        for (std::size_t j = 0; j < 40; ++j) {
            EXPECT_NEAR(serial.at(i, j), parallel.at(i, j), 1e-5f)
                << i << "," << j;
        }
    }
}

// ---------------------------------------------------------------------
// Aggregation and fused layers over bf16 features.
// ---------------------------------------------------------------------

/**
 * Gathering from bf16 storage must equal gathering fp32 features that
 * were themselves rounded through bf16: widening is exact and both
 * paths accumulate neighbors in the same order, so the match is
 * bit-identical.
 */
TEST(Bf16Aggregation, MatchesFp32OnRoundedInput)
{
    const CsrGraph g = testGraph();
    const AggregationSpec spec = gcnSpec(g);
    DenseMatrix features(g.numVertices(), 43);
    features.fillUniform(-2.0f, 2.0f, 61);

    Bf16Matrix packed(g.numVertices(), 43);
    packed.fromDense(features);
    DenseMatrix rounded(g.numVertices(), 43);
    packed.toDense(rounded);

    DenseMatrix ref(g.numVertices(), 43);
    aggregate(g, rounded, ref, spec);
    DenseMatrix got(g.numVertices(), 43);
    aggregate(g, packed, got, spec);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (std::size_t c = 0; c < 43; ++c)
            EXPECT_EQ(floatBits(got.at(v, c)), floatBits(ref.at(v, c)))
                << v << "," << c;
    }
}

/**
 * A processing order changes when each vertex runs, not the order its
 * neighbours fold in, so a bf16 gather in locality order still matches
 * the flat fp32 gather of the rounded input bit for bit.
 */
TEST(Bf16Aggregation, ProcessingOrderMatchesFp32Bitwise)
{
    const CsrGraph g = testGraph();
    const AggregationSpec spec = gcnSpec(g);
    DenseMatrix features(g.numVertices(), 24);
    features.fillUniform(-2.0f, 2.0f, 62);
    Bf16Matrix packed(g.numVertices(), 24);
    packed.fromDense(features);
    DenseMatrix rounded(g.numVertices(), 24);
    packed.toDense(rounded);

    DenseMatrix ref(g.numVertices(), 24);
    aggregate(g, rounded, ref, spec);
    const ProcessingOrder order = localityOrder(g);
    DenseMatrix got(g.numVertices(), 24);
    aggregate(g, packed, got, spec, order);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (std::size_t c = 0; c < 24; ++c)
            EXPECT_EQ(floatBits(got.at(v, c)), floatBits(ref.at(v, c)))
                << v << "," << c;
    }
}

TEST(Bf16FusedLayer, InferenceMatchesUnfusedComposition)
{
    const CsrGraph g = testGraph();
    const AggregationSpec spec = gcnSpec(g);
    const std::size_t fIn = 40;
    const std::size_t fOut = 24;
    DenseMatrix features(g.numVertices(), fIn);
    features.fillUniform(-1.0f, 1.0f, 71);
    Bf16Matrix packed(g.numVertices(), fIn);
    packed.fromDense(features);

    DenseMatrix weights(fIn, fOut);
    weights.fillUniform(-0.4f, 0.4f, 72);
    std::vector<Feature> bias(fOut, 0.05f);
    GemmPlan plan;
    plan.pack(GemmMode::NN, weights, Precision::Bf16);
    const UpdateOp update{&weights, bias, true, &plan, Precision::Bf16};

    // Unfused composition at the same precision.
    DenseMatrix agg(g.numVertices(), fIn);
    aggregate(g, packed, agg, spec);
    DenseMatrix ref(g.numVertices(), fOut);
    gemm(GemmMode::NN, agg, plan, ref);
    finishRows(ref, bias, true, {});

    Bf16Matrix outBf16(g.numVertices(), fOut);
    DenseMatrix out(g.numVertices(), fOut);
    fusedLayer(g, packed, spec, update, out, {.bf16 = &outBf16});
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (std::size_t c = 0; c < fOut; ++c) {
            EXPECT_NEAR(out.at(v, c), ref.at(v, c),
                        1e-5f * std::max(1.0f, std::abs(ref.at(v, c))))
                << v << "," << c;
            // Write-side rounding happened while cache-resident; it
            // must equal rounding the final fp32 row.
            EXPECT_EQ(outBf16.row(v)[c], bf16FromFloat(out.at(v, c)))
                << v << "," << c;
        }
    }
}

TEST(Bf16FusedLayer, TrainingKeepsFp32AggForBackprop)
{
    const CsrGraph g = testGraph();
    const AggregationSpec spec = gcnSpec(g);
    DenseMatrix features(g.numVertices(), 32);
    features.fillUniform(-1.0f, 1.0f, 73);
    Bf16Matrix packed(g.numVertices(), 32);
    packed.fromDense(features);

    DenseMatrix weights(32, 16);
    weights.fillUniform(-0.4f, 0.4f, 74);
    std::vector<Feature> bias(16, 0.0f);
    GemmPlan plan;
    plan.pack(GemmMode::NN, weights, Precision::Bf16);
    const UpdateOp update{&weights, bias, true, &plan, Precision::Bf16};

    DenseMatrix refAgg(g.numVertices(), 32);
    aggregate(g, packed, refAgg, spec);

    DenseMatrix aggOut(g.numVertices(), 32);
    DenseMatrix out(g.numVertices(), 16);
    fusedLayer(g, packed, spec, update, out, {&aggOut});
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (std::size_t c = 0; c < 32; ++c)
            EXPECT_EQ(floatBits(aggOut.at(v, c)),
                      floatBits(refAgg.at(v, c)))
                << v << "," << c;
    }
}

TEST(Bf16FusedLayer, BackwardMatchesUnfusedComposition)
{
    const CsrGraph g = testGraph();
    const CsrGraph t = g.transposed();
    const AggregationSpec spec = gcnSpec(g);
    const AggregationSpec tSpec = transposeSpec(g, spec, t);
    const std::size_t fIn = 24;
    const std::size_t fOut = 12;

    DenseMatrix weights(fIn, fOut);
    weights.fillUniform(-0.5f, 0.5f, 81);
    DenseMatrix dz(g.numVertices(), fOut);
    dz.fillUniform(-1.0f, 1.0f, 82);
    Bf16Matrix dzBf16(g.numVertices(), fOut);
    dzBf16.fromDense(dz);
    DenseMatrix dzRounded(g.numVertices(), fOut);
    dzBf16.toDense(dzRounded);
    GemmPlan planNT;
    planNT.pack(GemmMode::NT, weights, Precision::Bf16);

    // Unfused at the same precision: dAgg = Aggᵀ(dz) in fp32 from the
    // rounded dz, then the bf16 NT GEMM. (The fused kernel computes
    // (Aggᵀ dz)·Wᵀ — the commuted form; its aggregation sums the same
    // rounded values, its GEMM rounds the aggregated rows again at the
    // A pack, so match the composition exactly rather than fp32.)
    DenseMatrix aggT(g.numVertices(), fOut);
    aggregate(t, dzRounded, aggT, tSpec);
    DenseMatrix ref(g.numVertices(), fIn);
    gemm(GemmMode::NT, aggT, planNT, ref);

    DenseMatrix got(g.numVertices(), fIn);
    fusedLayerBackward(t, dzBf16, tSpec, planNT, got);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (std::size_t c = 0; c < fIn; ++c) {
            EXPECT_NEAR(got.at(v, c), ref.at(v, c),
                        1e-5f * std::max(1.0f, std::abs(ref.at(v, c))))
                << v << "," << c;
        }
    }
}

// ---------------------------------------------------------------------
// Byte accounting: the 2x gather-traffic claim, measured.
// ---------------------------------------------------------------------

TEST(Bf16Traffic, GatherBytesHalveAtFullPrecisionWidths)
{
    const CsrGraph g = testGraph();
    const AggregationSpec spec = gcnSpec(g);
    const std::size_t f = 128; // multiple of both strides: exact halving
    DenseMatrix features(g.numVertices(), f);
    features.fillUniform(-1.0f, 1.0f, 91);
    Bf16Matrix packed(g.numVertices(), f);
    packed.fromDense(features);
    DenseMatrix sparse = features;
    sparse.sparsify(0.6, 94);
    CompressedMatrix compressed(g.numVertices(), f);
    compressed.compressFrom(sparse);
    DenseMatrix out(g.numVertices(), f);
    PartitionConfig partition;
    partition.numShards = 4;
    const PartitionPlan plan = makePartitionPlan(g, partition);

    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    const bool wasEnabled = registry.enabled();
    registry.setEnabled(true);
    obs::Counter &bytes = registry.counter("agg.bytes_gathered");
    obs::Counter &shardBytes = registry.counter("partition.bytes_gathered");
    // Bytes one aggregate() call adds to agg.bytes_gathered; a sharded
    // schedule must add the same amount to partition.bytes_gathered.
    auto gathered = [&](FeatureRows in, const Schedule &schedule) {
        const std::uint64_t base = bytes.value();
        const std::uint64_t shardBase = shardBytes.value();
        aggregate(g, in, out, spec, schedule);
        const std::uint64_t added = bytes.value() - base;
        EXPECT_EQ(shardBytes.value() - shardBase,
                  schedule.plan != nullptr ? added : 0u);
        return added;
    };
    // One padded row per self term plus one per edge, at each source's
    // stored row size (the mean packed row for compressed).
    const std::uint64_t rows = g.numVertices() + g.numEdges();
    const struct
    {
        const char *name;
        FeatureRows in;
        std::uint64_t rowBytes;
    } sources[] = {
        {"fp32", features, features.rowBytes()},
        {"bf16", packed, packed.rowBytes()},
        {"compressed", compressed,
         compressed.compressedTrafficBytes() / g.numVertices()},
    };
    std::uint64_t flat[3] = {};
    for (std::size_t i = 0; i < 3; ++i) {
        flat[i] = gathered(sources[i].in, {});
        EXPECT_EQ(flat[i], rows * sources[i].rowBytes) << sources[i].name;
        EXPECT_EQ(gathered(sources[i].in, Schedule::sharded(plan)), flat[i])
            << sources[i].name;
    }
    registry.setEnabled(wasEnabled);

    ASSERT_GT(flat[0], 0u);
    EXPECT_EQ(flat[1] * 2, flat[0]);
    EXPECT_LT(flat[2], flat[0]);
}

TEST(Bf16Traffic, FusedGatherBytesHalveToo)
{
    const CsrGraph g = testGraph();
    const AggregationSpec spec = gcnSpec(g);
    const std::size_t f = 64;
    DenseMatrix features(g.numVertices(), f);
    features.fillUniform(-1.0f, 1.0f, 92);
    Bf16Matrix packed(g.numVertices(), f);
    packed.fromDense(features);
    DenseMatrix weights(f, 16);
    weights.fillUniform(-0.4f, 0.4f, 93);
    std::vector<Feature> bias(16, 0.0f);
    const UpdateOp fp32Update{&weights, bias, true};
    GemmPlan plan;
    plan.pack(GemmMode::NN, weights, Precision::Bf16);
    const UpdateOp bf16Update{&weights, bias, true, &plan,
                              Precision::Bf16};
    DenseMatrix out(g.numVertices(), 16);

    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    const bool wasEnabled = registry.enabled();
    registry.setEnabled(true);
    obs::Counter &bytes = registry.counter("fused.bytes_gathered");
    const std::uint64_t base = bytes.value();
    fusedLayer(g, features, spec, fp32Update, out);
    const std::uint64_t fp32Bytes = bytes.value() - base;
    fusedLayer(g, packed, spec, bf16Update, out);
    const std::uint64_t bf16Bytes = bytes.value() - base - fp32Bytes;
    registry.setEnabled(wasEnabled);

    ASSERT_GT(fp32Bytes, 0u);
    EXPECT_EQ(bf16Bytes * 2, fp32Bytes);
}

// ---------------------------------------------------------------------
// Model plumbing: the precision knob end to end.
// ---------------------------------------------------------------------

TEST(PrecisionConfig, NamesParseAndLabel)
{
    EXPECT_STREQ(precisionName(Precision::Fp32), "fp32");
    EXPECT_STREQ(precisionName(Precision::Bf16), "bf16");
    Precision p = Precision::Fp32;
    EXPECT_TRUE(parsePrecision("bf16", p));
    EXPECT_EQ(p, Precision::Bf16);
    EXPECT_TRUE(parsePrecision("fp32", p));
    EXPECT_EQ(p, Precision::Fp32);
    EXPECT_FALSE(parsePrecision("fp16", p));
    EXPECT_FALSE(parsePrecision("BF16", p)); // case-sensitive
    EXPECT_EQ(p, Precision::Fp32);           // untouched on failure

    TechniqueConfig tech = TechniqueConfig::combined();
    tech.precision = Precision::Bf16;
    EXPECT_EQ(tech.label(), "combined-bf16");
    EXPECT_EQ(TechniqueConfig::basic().label(), "basic");
}

TEST(PrecisionConfig, LayerPlanCacheIsPrecisionKeyed)
{
    GnnLayer layer(24, 16, true);
    layer.initWeights(3);
    const GemmPlan *fp32 = &layer.packedWeights(Precision::Fp32);
    EXPECT_EQ(fp32->precision(), Precision::Fp32);
    const GemmPlan *bf16 = &layer.packedWeights(Precision::Bf16);
    EXPECT_EQ(bf16->precision(), Precision::Bf16);
    // Each precision has its own slot: filling the bf16 one must not
    // repack (or move) the fp32 plan a concurrent reader may hold.
    EXPECT_NE(fp32, bf16);
    EXPECT_EQ(fp32->precision(), Precision::Fp32);
    EXPECT_EQ(&layer.packedWeights(Precision::Fp32), fp32);
    EXPECT_EQ(layer.packedWeightsTransposed(Precision::Bf16).precision(),
              Precision::Bf16);
    EXPECT_NE(&layer.packedWeightsTransposed(Precision::Fp32),
              &layer.packedWeightsTransposed(Precision::Bf16));
}

/** Relative Frobenius distance between two matrices. */
double
relativeFrobenius(const DenseMatrix &got, const DenseMatrix &ref)
{
    double num = 0.0;
    double den = 0.0;
    for (std::size_t r = 0; r < ref.rows(); ++r) {
        for (std::size_t c = 0; c < ref.cols(); ++c) {
            const double d = static_cast<double>(got.at(r, c)) -
                             static_cast<double>(ref.at(r, c));
            num += d * d;
            den += static_cast<double>(ref.at(r, c)) *
                   static_cast<double>(ref.at(r, c));
        }
    }
    return den == 0.0 ? std::sqrt(num) : std::sqrt(num / den);
}

/** (kind, fusion) */
using PrecisionSweep = std::tuple<GnnKind, bool>;

class Bf16GradientParity
    : public ::testing::TestWithParam<PrecisionSweep>
{
};

/**
 * Gradient parity fp32 vs bf16 across model kinds and kernel paths.
 * Tolerances are deliberately relaxed relative to the fp32-only parity
 * sweeps: bf16 rounds activations and weights to 8 mantissa bits
 * (relative step 2^-8 ≈ 0.4%), and two layers of aggregation + GEMM
 * compound it, so gradients are compared by relative Frobenius
 * distance rather than 1e-4 elementwise. Observed: GCN and GIN track
 * within 3%; GraphSAGE's layer-0 gradients see partial cancellation
 * across its mean-aggregated neighborhoods and land near 7%. The gate
 * is 10% — pinning accuracy, not equality; that gap is the documented
 * cost of the 2x traffic saving.
 */
TEST_P(Bf16GradientParity, GradientsTrackFp32Within10Percent)
{
    const auto [kind, fusion] = GetParam();
    const CsrGraph g = testGraph();

    GnnModelConfig config;
    config.kind = kind;
    config.featureWidths = {12, 24, 5};
    config.dropoutRate = 0.0; // isolate precision effects
    GnnModel fp32Model(g, config);
    GnnModel bf16Model(g, config);

    DenseMatrix features(g.numVertices(), 12);
    features.fillUniform(-1.0f, 1.0f, 10);
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 5);

    TechniqueConfig fp32Tech;
    fp32Tech.fusion = fusion;
    TechniqueConfig bf16Tech = fp32Tech;
    bf16Tech.precision = Precision::Bf16;

    const auto backward = [&](GnnModel &model,
                              const TechniqueConfig &tech) {
        const DenseMatrix &logits = model.trainForward(features, tech);
        DenseMatrix lossGrad(logits.rows(), logits.cols());
        softmaxCrossEntropy(logits, labels, lossGrad);
        model.trainBackward(lossGrad, tech);
    };
    backward(fp32Model, fp32Tech);
    backward(bf16Model, bf16Tech);

    for (std::size_t k = 0; k < fp32Model.numLayers(); ++k) {
        const double wErr =
            relativeFrobenius(bf16Model.layer(k).weightGrad(),
                              fp32Model.layer(k).weightGrad());
        EXPECT_LT(wErr, 0.10) << "weightGrad layer " << k;

        const std::span<const Feature> refB =
            fp32Model.layer(k).biasGrad();
        const std::span<const Feature> gotB =
            bf16Model.layer(k).biasGrad();
        double num = 0.0;
        double den = 0.0;
        for (std::size_t c = 0; c < refB.size(); ++c) {
            num += (gotB[c] - refB[c]) * (gotB[c] - refB[c]);
            den += refB[c] * refB[c];
        }
        EXPECT_LT(den == 0.0 ? std::sqrt(num) : std::sqrt(num / den),
                  0.10)
            << "biasGrad layer " << k;
    }
}

std::string
precisionSweepName(const ::testing::TestParamInfo<PrecisionSweep> &info)
{
    const auto [kind, fusion] = info.param;
    return gnnKindName(kind) + (fusion ? "_fused" : "_unfused");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Bf16GradientParity,
    ::testing::Combine(::testing::Values(GnnKind::Gcn, GnnKind::Sage,
                                         GnnKind::Gin),
                       ::testing::Bool()),
    precisionSweepName);

TEST(Bf16Model, InferenceTracksFp32AcrossTechniques)
{
    const CsrGraph g = testGraph();
    GnnModelConfig config;
    config.featureWidths = {16, 32, 6};
    GnnModel model(g, config);
    DenseMatrix features(g.numVertices(), 16);
    features.fillUniform(-1.0f, 1.0f, 15);

    const DenseMatrix fp32Logits =
        model.inference(features, TechniqueConfig::basic());
    for (TechniqueConfig tech :
         {TechniqueConfig::basic(), TechniqueConfig::withFusion(),
          TechniqueConfig::combined()}) {
        tech.precision = Precision::Bf16;
        const DenseMatrix &logits = model.inference(features, tech);
        EXPECT_LT(relativeFrobenius(logits, fp32Logits), 0.02)
            << tech.label();
    }
    // And the default stays bit-compatible with itself after the bf16
    // runs (no state leaks from the precision-keyed plan cache).
    const DenseMatrix &again =
        model.inference(features, TechniqueConfig::basic());
    for (std::size_t r = 0; r < again.rows(); ++r) {
        for (std::size_t c = 0; c < again.cols(); ++c)
            EXPECT_EQ(floatBits(again.at(r, c)),
                      floatBits(fp32Logits.at(r, c)));
    }
}

} // namespace
} // namespace graphite
