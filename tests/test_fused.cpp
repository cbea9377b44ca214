/**
 * @file
 * Tests of layer fusion (paper Algorithm 2): fused results must be
 * bit-compatible with the unfused aggregation + GEMM pipeline across
 * graph sizes around the block shape, orders, and compression variants.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.h"
#include "graph/reorder.h"
#include "kernels/engine.h"
#include "kernels/fused_layer.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite {
namespace {

struct LayerFixture
{
    CsrGraph graph;
    AggregationSpec spec;
    DenseMatrix input;
    DenseMatrix weights;
    std::vector<Feature> bias;

    LayerFixture(std::size_t fIn, std::size_t fOut, double sparsity = 0.0)
    {
        RmatParams params;
        params.scale = 9;
        params.avgDegree = 8.0;
        graph = generateRmat(params);
        spec = gcnSpec(graph);
        input = DenseMatrix(graph.numVertices(), fIn);
        input.fillUniform(-1.0f, 1.0f, 31);
        if (sparsity > 0.0)
            input.sparsify(sparsity, 32);
        weights = DenseMatrix(fIn, fOut);
        weights.fillUniform(-0.2f, 0.2f, 33);
        bias.assign(fOut, 0.01f);
    }

    UpdateOp
    update() const
    {
        return UpdateOp{&weights, bias, true};
    }

    /** Ground truth h^k and a^k via the unfused path. */
    std::pair<DenseMatrix, DenseMatrix>
    reference() const
    {
        DenseMatrix agg(graph.numVertices(), input.cols());
        DenseMatrix out(graph.numVertices(), weights.cols());
        unfusedLayer(graph, input, spec, update(), agg, out);
        return {std::move(agg), std::move(out)};
    }
};

static_assert(kFusedBlockSize == 16 && kFusedBlocksPerTask == 4,
              "re-pick the fused block-shape graph sizes");

/** The fused training variant matches the unfused layer on @p n vertices. */
void
expectTrainingParity(VertexId n)
{
    const CsrGraph graph = generateErdosRenyi(n, 3 * EdgeId{n}, false, 41);
    const AggregationSpec spec = gcnSpec(graph);
    DenseMatrix input(n, 96);
    input.fillUniform(-1.0f, 1.0f, 31);
    DenseMatrix weights(96, 64);
    weights.fillUniform(-0.2f, 0.2f, 33);
    const std::vector<Feature> bias(64, 0.01f);
    const UpdateOp update{&weights, bias, true};

    DenseMatrix refAgg(n, 96);
    DenseMatrix refOut(n, 64);
    unfusedLayer(graph, input, spec, update, refAgg, refOut);
    DenseMatrix agg(n, 96);
    DenseMatrix out(n, 64);
    fusedLayer(graph, input, spec, update, out, {&agg});
    EXPECT_LT(agg.maxAbsDiff(refAgg), 1e-4);
    EXPECT_LT(out.maxAbsDiff(refOut), 1e-4);
}

/**
 * Graphs measured in fused blocks: (full blocks, vertices in a trailing
 * partial block). 1 block fills part of one task, 7 blocks plus the
 * partial one fill exactly two tasks, and 16 and 64 blocks end in a
 * task holding only the partial block.
 */
class FusedBlockShapes
    : public testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(FusedBlockShapes, TrainingVariantMatchesUnfused)
{
    const auto [blocks, tail] = GetParam();
    expectTrainingParity(static_cast<VertexId>(blocks * kFusedBlockSize) +
                         static_cast<VertexId>(tail));
}

INSTANTIATE_TEST_SUITE_P(Blocks, FusedBlockShapes,
                         testing::Combine(testing::Values(1, 7, 16, 64),
                                          testing::Values(1, 4)));

/** Graphs of at most one block: smaller than a block, exactly one. */
class FusedBlockEdges : public testing::TestWithParam<VertexId>
{
};

TEST_P(FusedBlockEdges, TrainingVariantMatchesUnfused)
{
    expectTrainingParity(GetParam());
}

INSTANTIATE_TEST_SUITE_P(VertexCounts, FusedBlockEdges,
                         testing::Values(5, 16),
                         testing::PrintToStringParamName());

TEST(FusedLayer, InferenceVariantMatchesUnfused)
{
    LayerFixture fx(128, 128);
    auto [refAgg, refOut] = fx.reference();
    DenseMatrix out(fx.graph.numVertices(), 128);
    fusedLayer(fx.graph, fx.input, fx.spec, fx.update(), out);
    EXPECT_LT(out.maxAbsDiff(refOut), 1e-4);
}

TEST(FusedLayer, RespectsProcessingOrder)
{
    LayerFixture fx(64, 32);
    auto [refAgg, refOut] = fx.reference();
    ProcessingOrder order = localityOrder(fx.graph);
    DenseMatrix agg(fx.graph.numVertices(), 64);
    DenseMatrix out(fx.graph.numVertices(), 32);
    fusedLayer(fx.graph, fx.input, fx.spec, fx.update(), out, {&agg}, order);
    EXPECT_LT(agg.maxAbsDiff(refAgg), 1e-4);
    EXPECT_LT(out.maxAbsDiff(refOut), 1e-4);
}

TEST(FusedLayer, CompressedInputMatchesDense)
{
    LayerFixture fx(128, 96, 0.6);
    auto [refAgg, refOut] = fx.reference();
    CompressedMatrix packed(fx.graph.numVertices(), 128);
    packed.compressFrom(fx.input);

    DenseMatrix agg(fx.graph.numVertices(), 128);
    DenseMatrix out(fx.graph.numVertices(), 96);
    fusedLayer(fx.graph, packed, fx.spec, fx.update(), out, {&agg});
    EXPECT_LT(agg.maxAbsDiff(refAgg), 1e-4);
    EXPECT_LT(out.maxAbsDiff(refOut), 1e-4);
}

TEST(FusedLayer, CompressedOutputRoundTrips)
{
    LayerFixture fx(64, 64, 0.5);
    DenseMatrix out(fx.graph.numVertices(), 64);
    CompressedMatrix outPacked(fx.graph.numVertices(), 64);
    fusedLayer(fx.graph, fx.input, fx.spec, fx.update(), out);

    CompressedMatrix inPacked(fx.graph.numVertices(), 64);
    inPacked.compressFrom(fx.input);
    DenseMatrix out2(fx.graph.numVertices(), 64);
    fusedLayer(fx.graph, inPacked, fx.spec, fx.update(), out2,
               {.compressed = &outPacked});
    EXPECT_LT(out.maxAbsDiff(out2), 1e-4);

    // The packed output must decompress to the dense output (ReLU makes
    // it genuinely sparse, exercising real compression).
    DenseMatrix restored(fx.graph.numVertices(), 64);
    outPacked.decompressTo(restored);
    EXPECT_LT(restored.maxAbsDiff(out2), 1e-6);
    EXPECT_GT(out2.sparsity(), 0.2); // ReLU produced zeros
}

TEST(FusedLayer, NoReluPassesNegativesThrough)
{
    LayerFixture fx(32, 32);
    UpdateOp update = fx.update();
    update.relu = false;
    DenseMatrix agg(fx.graph.numVertices(), 32);
    DenseMatrix out(fx.graph.numVertices(), 32);
    fusedLayer(fx.graph, fx.input, fx.spec, update, out, {&agg});
    bool sawNegative = false;
    for (VertexId v = 0; v < fx.graph.numVertices() && !sawNegative; ++v) {
        for (std::size_t c = 0; c < 32; ++c) {
            if (out.at(v, c) < 0.0f) {
                sawNegative = true;
                break;
            }
        }
    }
    EXPECT_TRUE(sawNegative);
}

} // namespace
} // namespace graphite
