/**
 * @file
 * Tests for the tensor substrate: matrix storage/layout, all GEMM modes
 * against the naive reference, SpMM, and the row-wise operators.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "kernels/aggregation.h"
#include "tensor/dense_matrix.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"
#include "tensor/spmm.h"

namespace graphite {
namespace {

TEST(DenseMatrix, RowsAreCacheLineAligned)
{
    DenseMatrix m(5, 100);
    EXPECT_EQ(m.rowStride(), 112u); // 100 -> next multiple of 16
    for (std::size_t r = 0; r < m.rows(); ++r) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.row(r)) % 64, 0u);
    }
}

TEST(DenseMatrix, ExactMultipleNeedsNoPadding)
{
    DenseMatrix m(3, 256);
    EXPECT_EQ(m.rowStride(), 256u);
    EXPECT_EQ(m.rowBytes(), 1024u);
}

TEST(DenseMatrix, SparsityCountsLogicalElementsOnly)
{
    DenseMatrix m(4, 10);
    // All zero: fully sparse, regardless of padding.
    EXPECT_DOUBLE_EQ(m.sparsity(), 1.0);
    m.at(0, 0) = 1.0f;
    m.at(1, 5) = 2.0f;
    EXPECT_DOUBLE_EQ(m.sparsity(), 38.0 / 40.0);
}

TEST(DenseMatrix, SparsifyHitsTargetRate)
{
    DenseMatrix m(100, 128);
    m.fillUniform(0.5f, 1.5f, 7);
    m.sparsify(0.7, 11);
    EXPECT_NEAR(m.sparsity(), 0.7, 0.02);
}

TEST(DenseMatrix, FillUniformRespectsBounds)
{
    DenseMatrix m(10, 64);
    m.fillUniform(-2.0f, 3.0f, 5);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            EXPECT_GE(m.at(r, c), -2.0f);
            EXPECT_LT(m.at(r, c), 3.0f);
        }
    }
}

class GemmModes
    : public testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(GemmModes, MatchesReference)
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
    a.fillUniform(-1.0f, 1.0f, 1);
    b.fillUniform(-1.0f, 1.0f, 2);
    DenseMatrix c(m, n);
    DenseMatrix expected(m, n);
    gemm(mode, a, b, c);
    gemmReference(mode, a, b, expected);
    EXPECT_LT(c.maxAbsDiff(expected), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmModes,
    testing::Combine(testing::Values(0, 1, 2),       // NN, NT, TN
                     testing::Values(1, 17, 64),     // M
                     testing::Values(8, 33),         // N
                     testing::Values(16, 100)));     // K

TEST(Gemm, AccumulateAddsToExisting)
{
    DenseMatrix a(4, 8);
    DenseMatrix b(8, 4);
    a.fillUniform(0.0f, 1.0f, 3);
    b.fillUniform(0.0f, 1.0f, 4);
    DenseMatrix c(4, 4);
    DenseMatrix once(4, 4);
    gemm(GemmMode::NN, a, b, once);
    gemm(GemmMode::NN, a, b, c);
    gemm(GemmMode::NN, a, b, c, GemmAccumulate::Add);
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_NEAR(c.at(r, j), 2.0f * once.at(r, j), 1e-4);
    }
}

TEST(GemmBlockSerial, MatchesWholeMatrixGemm)
{
    const std::size_t rows = 16;
    const std::size_t k = 48;
    const std::size_t n = 32;
    DenseMatrix a(rows, k);
    DenseMatrix w(k, n);
    a.fillUniform(-1.0f, 1.0f, 5);
    w.fillUniform(-1.0f, 1.0f, 6);
    DenseMatrix expected(rows, n);
    gemm(GemmMode::NN, a, w, expected);
    DenseMatrix c(rows, n);
    gemmBlockSerial(a.row(0), rows, a.rowStride(), w, c.row(0),
                    c.rowStride(), k);
    EXPECT_LT(c.maxAbsDiff(expected), 1e-4);
}

/**
 * Build the mode-appropriate operand shapes for an M x N = f(K) GEMM.
 */
void
makeOperands(GemmMode mode, std::size_t m, std::size_t n, std::size_t k,
             DenseMatrix &a, DenseMatrix &b)
{
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
    a.fillUniform(-1.0f, 1.0f, 21);
    b.fillUniform(-1.0f, 1.0f, 22);
}

class GemmPackedSweep
    : public testing::TestWithParam<std::tuple<int, int>>
{
};

/**
 * Ragged-shape sweep around the micro-kernel's blocking parameters:
 * M around MR (8) and the tile height, N around NR (32) including
 * single-column, K around KC (128) including the empty product. Every
 * (mode, accumulate) pairing must match the naive reference.
 */
TEST_P(GemmPackedSweep, RaggedShapesMatchReference)
{
    const auto [modeInt, accInt] = GetParam();
    const auto mode = static_cast<GemmMode>(modeInt);
    const auto acc = static_cast<GemmAccumulate>(accInt);
    const std::size_t ms[] = {1, 7, 8, 9, 67};
    const std::size_t ns[] = {1, 31, 32, 33, 130};
    const std::size_t ks[] = {0, 1, 17, 129};
    for (std::size_t m : ms) {
        for (std::size_t n : ns) {
            for (std::size_t k : ks) {
                DenseMatrix a;
                DenseMatrix b;
                makeOperands(mode, m, n, k, a, b);
                DenseMatrix c(m, n);
                DenseMatrix expected(m, n);
                c.fillUniform(-1.0f, 1.0f, 23);
                expected = c;
                gemm(mode, a, b, c, acc);
                gemmReference(mode, a, b, expected, acc);
                EXPECT_LT(c.maxAbsDiff(expected), 1e-3)
                    << "m=" << m << " n=" << n << " k=" << k;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndAccumulate, GemmPackedSweep,
    testing::Combine(testing::Values(0, 1, 2),   // NN, NT, TN
                     testing::Values(0, 1)));    // Overwrite, Add

TEST(GemmPlan, ReuseAcrossCallsGivesIdenticalResults)
{
    DenseMatrix a1(37, 96);
    DenseMatrix a2(37, 96);
    DenseMatrix b(96, 70);
    a1.fillUniform(-1.0f, 1.0f, 31);
    a2.fillUniform(-1.0f, 1.0f, 32);
    b.fillUniform(-1.0f, 1.0f, 33);

    GemmPlan plan;
    plan.pack(GemmMode::NN, b);
    EXPECT_EQ(plan.k(), 96u);
    EXPECT_EQ(plan.n(), 70u);

    // The same plan driven repeatedly must be bit-identical to the
    // pack-internally path (they share one micro-kernel).
    DenseMatrix viaPlan(37, 70);
    DenseMatrix internal(37, 70);
    gemm(GemmMode::NN, a1, b, internal);
    for (int round = 0; round < 3; ++round) {
        gemm(GemmMode::NN, a1, plan, viaPlan);
        EXPECT_EQ(viaPlan.maxAbsDiff(internal), 0.0f) << round;
    }

    // And stays valid for a different left operand afterwards.
    DenseMatrix expected(37, 70);
    gemmReference(GemmMode::NN, a2, b, expected);
    gemm(GemmMode::NN, a2, plan, viaPlan);
    EXPECT_LT(viaPlan.maxAbsDiff(expected), 1e-3);
}

TEST(GemmPlan, ValidateAcceptsFreshPlanAndEmptyPlan)
{
    GemmPlan empty;
    EXPECT_EQ(empty.validate(), nullptr);

    DenseMatrix b(96, 70);
    b.fillUniform(-1.0f, 1.0f, 7);
    GemmPlan plan(GemmMode::NN, b);
    EXPECT_EQ(plan.validate(), nullptr);
    EXPECT_EQ(plan.validateFor(96, 70), nullptr);
}

TEST(GemmPlan, ValidateForRejectsShapeMismatch)
{
    DenseMatrix b(96, 70);
    b.fillUniform(-1.0f, 1.0f, 8);
    GemmPlan plan(GemmMode::NN, b);
    // A plan packed for one layer reused against another layer's
    // shapes: both the K and N disagreements must be caught before the
    // micro-kernel streams past the packed buffer.
    EXPECT_NE(plan.validateFor(95, 70), nullptr);
    EXPECT_NE(plan.validateFor(96, 71), nullptr);
    EXPECT_NE(plan.validateFor(70, 96), nullptr);
    // And the empty plan is never valid for a real GEMM.
    GemmPlan empty;
    EXPECT_NE(empty.validateFor(96, 70), nullptr);
}

TEST(DenseMatrix, CountNonFiniteFindsInjectedValues)
{
    DenseMatrix m(5, 7);
    m.fillUniform(-1.0f, 1.0f, 9);
    EXPECT_TRUE(m.allFinite());
    EXPECT_EQ(m.countNonFinite(), 0u);
    m.row(2)[3] = std::numeric_limits<Feature>::quiet_NaN();
    m.row(4)[0] = std::numeric_limits<Feature>::infinity();
    m.row(0)[6] = -std::numeric_limits<Feature>::infinity();
    EXPECT_FALSE(m.allFinite());
    EXPECT_EQ(m.countNonFinite(), 3u);
}

TEST(DenseMatrix, CountNonFiniteIgnoresPaddingLanes)
{
    // 7 columns pads to a 16-float stride; garbage in the pad lanes
    // must not count. Poison the first row's padding directly.
    DenseMatrix m(3, 7);
    m.zero();
    ASSERT_GT(m.rowStride(), m.cols());
    m.row(0)[m.cols()] = std::numeric_limits<Feature>::quiet_NaN();
    EXPECT_TRUE(m.allFinite());
}

TEST(GemmPlan, TransposedPackMatchesNtReference)
{
    DenseMatrix a(19, 40);
    DenseMatrix b(25, 40); // N x K, used transposed
    a.fillUniform(-1.0f, 1.0f, 41);
    b.fillUniform(-1.0f, 1.0f, 42);
    GemmPlan plan;
    plan.pack(GemmMode::NT, b);
    EXPECT_EQ(plan.k(), 40u);
    EXPECT_EQ(plan.n(), 25u);
    DenseMatrix c(19, 25);
    DenseMatrix expected(19, 25);
    gemm(GemmMode::NT, a, plan, c);
    gemmReference(GemmMode::NT, a, b, expected);
    EXPECT_LT(c.maxAbsDiff(expected), 1e-3);
}

TEST(GemmBlockSerial, PackedPlanMatchesUnpackedPath)
{
    const std::size_t rows = 13;
    const std::size_t k = 50;
    const std::size_t n = 33;
    DenseMatrix a(rows, k);
    DenseMatrix w(k, n);
    a.fillUniform(-1.0f, 1.0f, 51);
    w.fillUniform(-1.0f, 1.0f, 52);
    GemmPlan plan;
    plan.pack(GemmMode::NN, w);

    DenseMatrix viaPlan(rows, n);
    DenseMatrix expected(rows, n);
    gemmReference(GemmMode::NN, a, w, expected);
    gemmBlockSerial(a.row(0), rows, a.rowStride(), plan, viaPlan.row(0),
                    viaPlan.rowStride(), k);
    EXPECT_LT(viaPlan.maxAbsDiff(expected), 1e-3);

    // Single-row blocks (the DMA pipeline's shape) through the same plan.
    DenseMatrix rowwise(rows, n);
    for (std::size_t r = 0; r < rows; ++r) {
        gemmBlockSerial(a.row(r), 1, a.rowStride(), plan,
                        rowwise.row(r), rowwise.rowStride(), k);
    }
    EXPECT_EQ(rowwise.maxAbsDiff(viaPlan), 0.0f);
}

TEST(Spmm, MatchesAggregationReference)
{
    CsrGraph g = generateErdosRenyi(200, 1500, false, 7);
    DenseMatrix h(200, 64);
    h.fillUniform(-1.0f, 1.0f, 8);
    AggregationSpec spec = gcnSpec(g);
    DenseMatrix viaSpmm(200, 64);
    DenseMatrix expected(200, 64);
    spmm(g, h, viaSpmm, spec.edgeFactors, spec.selfFactors);
    aggregateReference(g, h, expected, spec);
    EXPECT_LT(viaSpmm.maxAbsDiff(expected), 1e-4);
}

TEST(Spmm, UnweightedSumsNeighborsPlusSelf)
{
    CsrGraph g = generateRing(8);
    DenseMatrix h(8, 16);
    for (VertexId v = 0; v < 8; ++v)
        h.at(v, 0) = static_cast<Feature>(v + 1);
    DenseMatrix out(8, 16);
    spmm(g, h, out);
    // Vertex 0: self(1) + ring neighbors 1 and 7 -> 1 + 2 + 8 = 11.
    EXPECT_FLOAT_EQ(out.at(0, 0), 11.0f);
}

TEST(RowOps, ReluClampsNegatives)
{
    DenseMatrix x(3, 20);
    x.fillUniform(-1.0f, 1.0f, 9);
    DenseMatrix copy = x;
    finishRows(x, {}, true, {});
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 20; ++c) {
            EXPECT_EQ(x.at(r, c), std::max(copy.at(r, c), 0.0f));
        }
    }
}

TEST(RowOps, ReluBackwardMasksByActivation)
{
    DenseMatrix act(2, 16);
    act.at(0, 0) = 1.0f; // active
    // act(0,1) == 0    -> clipped
    DenseMatrix grad(2, 16);
    grad.at(0, 0) = 5.0f;
    grad.at(0, 1) = 7.0f;
    reluBackward(act, grad);
    EXPECT_EQ(grad.at(0, 0), 5.0f);
    EXPECT_EQ(grad.at(0, 1), 0.0f);
}

TEST(RowOps, AddBiasBroadcastsAcrossRows)
{
    DenseMatrix x(4, 8);
    std::vector<Feature> bias(8);
    for (std::size_t c = 0; c < 8; ++c)
        bias[c] = static_cast<Feature>(c);
    finishRows(x, bias, false, {});
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 8; ++c)
            EXPECT_EQ(x.at(r, c), static_cast<Feature>(c));
    }
}

TEST(RowOps, DropoutZerosAtRateAndScalesSurvivors)
{
    for (const double rate : {0.1, 0.4, 0.5}) {
        SCOPED_TRACE(rate);
        const DropoutOp op = DropoutOp::at(rate, 11);
        // The stated quantization: threshold = floor(rate · 2^32).
        EXPECT_EQ(op.threshold,
                  static_cast<std::uint32_t>(std::ldexp(rate, 32)));
        EXPECT_EQ(op.scale, static_cast<float>(1.0 / (1.0 - rate)));
        DenseMatrix x(200, 64);
        x.fillUniform(1.0f, 2.0f, 10);
        const DenseMatrix orig = x;
        finishRows(x, {}, false, op);
        std::size_t zeros = 0;
        for (std::size_t r = 0; r < x.rows(); ++r) {
            for (std::size_t c = 0; c < x.cols(); ++c) {
                if (x.at(r, c) == 0.0f)
                    ++zeros;
                else
                    ASSERT_EQ(x.at(r, c), orig.at(r, c) * op.scale);
            }
        }
        // 12,800 draws: one standard deviation is at most 0.0045.
        EXPECT_NEAR(static_cast<double>(zeros) / (200 * 64), rate, 0.02);
    }
    EXPECT_FALSE(DropoutOp::at(0.0, 11).on());
    EXPECT_FALSE(DropoutOp{}.on());
}

// The dropout backward is the ReLU backward with the survivor scale: on
// any post-dropout h it equals the explicit kept mask and scale
// followed by the plain ReLU backward, bit for bit — also where h holds
// zeros, negatives (no ReLU before the dropout) and NaN.
TEST(RowOps, ReluBackwardWithScaleMatchesMaskThenReluOracle)
{
    const std::size_t rows = 300;
    const std::size_t cols = 40;
    const DropoutOp op = DropoutOp::at(0.4, 17);
    DenseMatrix h(rows, cols);
    h.fillUniform(-1.0f, 1.0f, 18);
    for (std::size_t r = 0; r < rows; ++r) {
        h.at(r, r % cols) = 0.0f;
        h.at(r, (r + 7) % cols) = std::numeric_limits<Feature>::quiet_NaN();
    }
    finishRows(h, {}, false, op);
    // The kept mask, from the same op over ones.
    DenseMatrix kept(rows, cols);
    kept.fillUniform(1.0f, 1.0f, 0);
    finishRows(kept, {}, false, op);

    DenseMatrix grad(rows, cols);
    grad.fillUniform(-3.0f, 3.0f, 19);
    DenseMatrix oracle = grad;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            Feature &g = oracle.at(r, c);
            g = kept.at(r, c) != 0.0f ? g * op.scale : 0.0f;
            g = h.at(r, c) > 0.0f ? g : 0.0f;
        }
    }
    reluBackward(h, grad, op.scale);
    for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(std::memcmp(grad.row(r), oracle.row(r),
                              cols * sizeof(Feature)),
                  0)
            << "row " << r;
    }
}

TEST(RowOps, SoftmaxCrossEntropyGradientSumsToZero)
{
    DenseMatrix logits(10, 4);
    logits.fillUniform(-1.0f, 1.0f, 14);
    std::vector<std::int32_t> labels(10);
    for (std::size_t i = 0; i < 10; ++i)
        labels[i] = static_cast<std::int32_t>(i % 4);
    DenseMatrix grad(10, 4);
    const double loss = softmaxCrossEntropy(logits, labels, grad);
    EXPECT_GT(loss, 0.0);
    // Each row's gradient sums to (sum softmax) - 1 = 0, over 1/N scale.
    for (std::size_t r = 0; r < 10; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < 4; ++c)
            sum += grad.at(r, c);
        EXPECT_NEAR(sum, 0.0, 1e-6);
    }
}

/** Serial reference for the cross-entropy loss (no gradient). */
double
serialCrossEntropy(const DenseMatrix &logits,
                   std::span<const std::int32_t> labels,
                   const std::uint8_t *mask)
{
    double total = 0.0;
    std::size_t counted = 0;
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        if (mask != nullptr && mask[r] == 0)
            continue;
        ++counted;
        const Feature *in = logits.row(r);
        Feature maxLogit = in[0];
        for (std::size_t c = 1; c < logits.cols(); ++c)
            maxLogit = std::max(maxLogit, in[c]);
        double denom = 0.0;
        for (std::size_t c = 0; c < logits.cols(); ++c)
            denom += std::exp(double{in[c]} - double{maxLogit});
        const auto label = static_cast<std::size_t>(labels[r]);
        const double p =
            std::exp(double{in[label]} - double{maxLogit}) / denom;
        total -= std::log(std::max(p, 1e-30));
    }
    return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

// Regression test: the parallel partial-loss reduction runs on pool
// worker threads, so every worker's contribution must land in the
// caller's scratch buffer (a function-local thread_local is NOT
// captured by reference — each worker would otherwise sum into its own
// instance and the result would drop their rows). Enough rows to span
// many 256-row chunks guarantees worker participation.
TEST(RowOps, SoftmaxCrossEntropyParallelReductionMatchesSerial)
{
    const std::size_t rows = 4096;
    const std::size_t classes = 8;
    DenseMatrix logits(rows, classes);
    logits.fillUniform(-2.0f, 2.0f, 21);
    std::vector<std::int32_t> labels(rows);
    for (std::size_t i = 0; i < rows; ++i)
        labels[i] = static_cast<std::int32_t>(i % classes);
    DenseMatrix grad(rows, classes);
    const double loss = softmaxCrossEntropy(logits, labels, grad);
    const double ref = serialCrossEntropy(logits, labels, nullptr);
    EXPECT_NEAR(loss, ref, 1e-9 * ref);
}

TEST(RowOps, SoftmaxCrossEntropyMaskedParallelReductionMatchesSerial)
{
    const std::size_t rows = 4096;
    const std::size_t classes = 8;
    DenseMatrix logits(rows, classes);
    logits.fillUniform(-2.0f, 2.0f, 22);
    std::vector<std::int32_t> labels(rows);
    std::vector<std::uint8_t> mask(rows);
    for (std::size_t i = 0; i < rows; ++i) {
        labels[i] = static_cast<std::int32_t>((i * 3) % classes);
        mask[i] = static_cast<std::uint8_t>(i % 5 != 0);
    }
    DenseMatrix grad(rows, classes);
    const double loss = softmaxCrossEntropy(logits, labels, grad, mask);
    const double ref = serialCrossEntropy(logits, labels, mask.data());
    EXPECT_NEAR(loss, ref, 1e-9 * ref);

    // An all-ones mask is the unmasked loss, bit for bit: the training
    // loop's unmasked path must not move.
    const std::vector<std::uint8_t> all(rows, 1);
    DenseMatrix gradAll(rows, classes);
    DenseMatrix gradNone(rows, classes);
    const double lossAll = softmaxCrossEntropy(logits, labels, gradAll, all);
    const double lossNone = softmaxCrossEntropy(logits, labels, gradNone);
    EXPECT_EQ(std::memcmp(&lossAll, &lossNone, sizeof(double)), 0);
    for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(std::memcmp(gradAll.row(r), gradNone.row(r),
                              classes * sizeof(Feature)),
                  0)
            << "row " << r;
    }
    EXPECT_EQ(accuracy(logits, labels, all), accuracy(logits, labels));

    // No selected row: loss 0, a zero gradient, accuracy 1.
    const std::vector<std::uint8_t> none(rows, 0);
    EXPECT_EQ(softmaxCrossEntropy(logits, labels, grad, none), 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < classes; ++c)
            ASSERT_EQ(grad.at(r, c), 0.0f);
    }
    EXPECT_EQ(accuracy(logits, labels, none), 1.0);
}

// softmaxCrossEntropy takes each exp once; the loss and gradient must
// stay those of the formula that takes it twice (once for the
// denominator, once for p), bit for bit. 200 rows fit one 256-row
// chunk, so the loss's partial sums run in the serial order too.
TEST(RowOps, SoftmaxCrossEntropyMatchesTwoExpFormulaBitwise)
{
    const std::size_t rows = 200;
    const std::size_t classes = 47;
    DenseMatrix logits(rows, classes);
    logits.fillUniform(-8.0f, 8.0f, 23);
    std::vector<std::int32_t> labels(rows);
    for (std::size_t i = 0; i < rows; ++i)
        labels[i] = static_cast<std::int32_t>((i * 7) % classes);
    DenseMatrix grad(rows, classes);
    const double loss = softmaxCrossEntropy(logits, labels, grad);

    const double invCount = 1.0 / static_cast<double>(rows);
    double refLoss = 0.0;
    std::vector<Feature> refGrad(classes);
    for (std::size_t r = 0; r < rows; ++r) {
        const Feature *in = logits.row(r);
        Feature maxLogit = in[0];
        for (std::size_t c = 1; c < classes; ++c)
            maxLogit = std::max(maxLogit, in[c]);
        double denom = 0.0;
        for (std::size_t c = 0; c < classes; ++c)
            denom += std::exp(double{in[c]} - double{maxLogit});
        const auto label = static_cast<std::size_t>(labels[r]);
        for (std::size_t c = 0; c < classes; ++c) {
            const double p =
                std::exp(double{in[c]} - double{maxLogit}) / denom;
            refGrad[c] = static_cast<Feature>(
                (p - (c == label ? 1.0 : 0.0)) * invCount);
            if (c == label)
                refLoss -= std::log(std::max(p, 1e-30));
        }
        ASSERT_EQ(std::memcmp(grad.row(r), refGrad.data(),
                              classes * sizeof(Feature)),
                  0)
            << "row " << r;
    }
    refLoss *= invCount;
    EXPECT_EQ(std::memcmp(&loss, &refLoss, sizeof(double)), 0)
        << loss << " vs " << refLoss;
}

TEST(RowOps, PerfectLogitsGiveLowLossAndFullAccuracy)
{
    DenseMatrix logits(6, 3);
    std::vector<std::int32_t> labels = {0, 1, 2, 0, 1, 2};
    for (std::size_t r = 0; r < 6; ++r)
        logits.at(r, static_cast<std::size_t>(labels[r])) = 20.0f;
    DenseMatrix grad(6, 3);
    EXPECT_LT(softmaxCrossEntropy(logits, labels, grad), 1e-6);
    EXPECT_DOUBLE_EQ(accuracy(logits, labels), 1.0);
}

} // namespace
} // namespace graphite
