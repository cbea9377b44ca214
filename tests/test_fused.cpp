/**
 * @file
 * Tests of layer fusion (paper Algorithm 2): fused results must be
 * bit-compatible with the unfused aggregation + GEMM pipeline across
 * graph sizes around the block shape, orders, and compression variants.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "graph/generators.h"
#include "graph/partition/partitioner.h"
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

// Dropout's keep decisions are a function of (seed, vertex, column):
// the fused block finish gives the same post-dropout rows under flat
// order, locality order and four shards, and the unfused layer drops
// exactly the elements the kept mask names, scaling the rest.
TEST(FusedLayer, DropoutIsTheSameUnderEveryScheduleAndUnfused)
{
    LayerFixture fx(64, 48);
    const VertexId n = fx.graph.numVertices();
    UpdateOp update = fx.update();
    update.dropout = DropoutOp::at(0.5, 5);
    const ProcessingOrder order = localityOrder(fx.graph);
    const PartitionPlan plan = makePartitionPlan(fx.graph, {.numShards = 4});

    DenseMatrix flat(n, 48);
    fusedLayer(fx.graph, fx.input, fx.spec, update, flat);
    for (const Schedule &schedule :
         {Schedule(order), Schedule::sharded(plan)}) {
        DenseMatrix out(n, 48);
        fusedLayer(fx.graph, fx.input, fx.spec, update, out, {}, schedule);
        for (VertexId v = 0; v < n; ++v) {
            ASSERT_EQ(std::memcmp(out.row(v), flat.row(v),
                                  48 * sizeof(Feature)),
                      0)
                << "vertex " << v;
        }
    }

    DenseMatrix kept(n, 48);
    kept.fillUniform(1.0f, 1.0f, 0);
    finishRows(kept, {}, false, update.dropout);
    DenseMatrix agg(n, 64);
    DenseMatrix fusedNoDrop(n, 48);
    fusedLayer(fx.graph, fx.input, fx.spec, fx.update(), fusedNoDrop);
    DenseMatrix unfused(n, 48);
    unfusedLayer(fx.graph, fx.input, fx.spec, update, agg, unfused);
    DenseMatrix unfusedNoDrop(n, 48);
    unfusedLayer(fx.graph, fx.input, fx.spec, fx.update(), agg,
                 unfusedNoDrop);
    const float scale = update.dropout.scale;
    std::size_t dropped = 0;
    for (VertexId v = 0; v < n; ++v) {
        for (std::size_t c = 0; c < 48; ++c) {
            const bool keep = kept.at(v, c) != 0.0f;
            dropped += !keep;
            ASSERT_EQ(flat.at(v, c),
                      keep ? fusedNoDrop.at(v, c) * scale : 0.0f);
            ASSERT_EQ(unfused.at(v, c),
                      keep ? unfusedNoDrop.at(v, c) * scale : 0.0f);
        }
    }
    EXPECT_NEAR(static_cast<double>(dropped) / (n * 48.0), 0.5, 0.02);
}

} // namespace
} // namespace graphite
