/**
 * @file
 * Tests of the DMA functional model (paper Section 5): descriptor
 * layout/validation, Algorithm 4 execution against the software
 * aggregation, descriptor splitting for wide feature vectors, fault
 * handling, and the Algorithm 5 pipelined runner.
 */

#include <gtest/gtest.h>

#include <utility>

#include "dma/descriptor.h"
#include "dma/dma_engine.h"
#include "dma/pipelined_runner.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "kernels/fused_layer.h"

namespace graphite {
namespace {

using dma::AggregationDescriptor;
using dma::BinOp;
using dma::CompletionStatus;
using dma::DmaEngine;
using dma::EngineConfig;
using dma::IdxType;
using dma::RedOp;
using dma::ValType;

TEST(Descriptor, Is64Bytes)
{
    EXPECT_EQ(sizeof(AggregationDescriptor), 64u);
}

TEST(Descriptor, ValidationCatchesBadFields)
{
    AggregationDescriptor desc;
    EXPECT_NE(dma::validateDescriptor(desc), nullptr); // E == 0

    desc.elementsPerBlock = 16;
    desc.paddedBlockBytes = 8; // E doesn't fit in S
    EXPECT_NE(dma::validateDescriptor(desc), nullptr);

    desc.paddedBlockBytes = 64;
    desc.numBlocks = 1;
    EXPECT_NE(dma::validateDescriptor(desc), nullptr); // no IDX

    float data[16] = {};
    float out[16] = {};
    std::uint32_t idx[1] = {0};
    desc.indexAddr = reinterpret_cast<std::uint64_t>(idx);
    desc.inputBase = reinterpret_cast<std::uint64_t>(data);
    desc.outputAddr = reinterpret_cast<std::uint64_t>(out);
    EXPECT_EQ(dma::validateDescriptor(desc), nullptr);

    desc.binOp = BinOp::Multiply; // needs FACTOR
    EXPECT_NE(dma::validateDescriptor(desc), nullptr);
}

TEST(Descriptor, ValidationCatchesCorruptedEncodings)
{
    // A well-formed descriptor, then corrupt one field at a time; the
    // validator must name every corruption. Enum fields arrive as raw
    // bytes from the descriptor queue, so out-of-range encodings are
    // exactly what a flipped bit produces.
    alignas(8) float data[16] = {};
    alignas(8) float out[16] = {};
    alignas(8) std::uint32_t idx[2] = {0, 1};
    AggregationDescriptor good;
    good.elementsPerBlock = 16;
    good.paddedBlockBytes = 64;
    good.numBlocks = 2;
    good.indexAddr = reinterpret_cast<std::uint64_t>(idx);
    good.inputBase = reinterpret_cast<std::uint64_t>(data);
    good.outputAddr = reinterpret_cast<std::uint64_t>(out);
    ASSERT_EQ(dma::validateDescriptor(good), nullptr);

    AggregationDescriptor desc = good;
    desc.redOp = static_cast<RedOp>(7);
    EXPECT_NE(dma::validateDescriptor(desc), nullptr);

    desc = good;
    desc.binOp = static_cast<BinOp>(200);
    EXPECT_NE(dma::validateDescriptor(desc), nullptr);

    desc = good;
    desc.idxType = static_cast<IdxType>(3);
    EXPECT_NE(dma::validateDescriptor(desc), nullptr);

    desc = good;
    desc.valType = static_cast<ValType>(1);
    EXPECT_NE(dma::validateDescriptor(desc), nullptr);

    desc = good;
    desc.paddedBlockBytes = 66; // not a multiple of the value size
    EXPECT_NE(dma::validateDescriptor(desc), nullptr);
}

TEST(Descriptor, ValidationCatchesMisalignedAddresses)
{
    alignas(8) float data[16] = {};
    alignas(8) float out[16] = {};
    alignas(8) std::uint32_t idx[2] = {0, 1};
    AggregationDescriptor good;
    good.elementsPerBlock = 16;
    good.paddedBlockBytes = 64;
    good.numBlocks = 2;
    good.indexAddr = reinterpret_cast<std::uint64_t>(idx);
    good.inputBase = reinterpret_cast<std::uint64_t>(data);
    good.outputAddr = reinterpret_cast<std::uint64_t>(out);
    ASSERT_EQ(dma::validateDescriptor(good), nullptr);

    AggregationDescriptor desc = good;
    desc.inputBase += 2; // engine issues 4-byte value loads
    EXPECT_NE(dma::validateDescriptor(desc), nullptr);

    desc = good;
    desc.outputAddr += 1;
    EXPECT_NE(dma::validateDescriptor(desc), nullptr);

    desc = good;
    desc.indexAddr += 2; // u32 indices need 4-byte alignment
    EXPECT_NE(dma::validateDescriptor(desc), nullptr);

    // The same address can be fine for u32 but misaligned for u64.
    desc = good;
    desc.indexAddr += 4;
    EXPECT_EQ(dma::validateDescriptor(desc), nullptr);
    desc.idxType = IdxType::U64;
    EXPECT_NE(dma::validateDescriptor(desc), nullptr);
}

TEST(DmaEngine, SumGatherMatchesManualReduction)
{
    // Three blocks of 4 elements at stride 32 bytes (8 floats).
    alignas(64) float input[3 * 8] = {};
    for (int b = 0; b < 3; ++b) {
        for (int j = 0; j < 4; ++j)
            input[b * 8 + j] = static_cast<float>(b * 10 + j);
    }
    std::uint32_t idx[3] = {2, 0, 1};
    float factors[3] = {1.0f, 2.0f, 3.0f};
    float out[4] = {};
    std::uint8_t status = 0;

    AggregationDescriptor desc;
    desc.redOp = RedOp::Sum;
    desc.binOp = BinOp::Multiply;
    desc.elementsPerBlock = 4;
    desc.paddedBlockBytes = 32;
    desc.numBlocks = 3;
    desc.indexAddr = reinterpret_cast<std::uint64_t>(idx);
    desc.inputBase = reinterpret_cast<std::uint64_t>(input);
    desc.outputAddr = reinterpret_cast<std::uint64_t>(out);
    desc.factorAddr = reinterpret_cast<std::uint64_t>(factors);
    desc.statusAddr = reinterpret_cast<std::uint64_t>(&status);

    DmaEngine engine;
    EXPECT_EQ(engine.execute(desc), CompletionStatus::Success);
    EXPECT_EQ(status,
              static_cast<std::uint8_t>(CompletionStatus::Success));
    for (int j = 0; j < 4; ++j) {
        const float expected = 1.0f * input[2 * 8 + j] +
                               2.0f * input[0 * 8 + j] +
                               3.0f * input[1 * 8 + j];
        EXPECT_FLOAT_EQ(out[j], expected);
    }
}

TEST(DmaEngine, MaxReductionWorks)
{
    alignas(64) float input[2 * 4] = {1.0f, -5.0f, 3.0f, 0.0f,
                                      2.0f, -1.0f, -3.0f, 7.0f};
    std::uint32_t idx[2] = {0, 1};
    float out[4] = {};
    AggregationDescriptor desc;
    desc.redOp = RedOp::Max;
    desc.binOp = BinOp::None;
    desc.elementsPerBlock = 4;
    desc.paddedBlockBytes = 16;
    desc.numBlocks = 2;
    desc.indexAddr = reinterpret_cast<std::uint64_t>(idx);
    desc.inputBase = reinterpret_cast<std::uint64_t>(input);
    desc.outputAddr = reinterpret_cast<std::uint64_t>(out);

    DmaEngine engine;
    EXPECT_EQ(engine.execute(desc), CompletionStatus::Success);
    EXPECT_FLOAT_EQ(out[0], 2.0f);
    EXPECT_FLOAT_EQ(out[1], -1.0f);
    EXPECT_FLOAT_EQ(out[2], 3.0f);
    EXPECT_FLOAT_EQ(out[3], 7.0f);
}

TEST(DmaEngine, ZeroBlocksYieldsIdentity)
{
    float out[4] = {9.0f, 9.0f, 9.0f, 9.0f};
    float in = 0.0f;
    AggregationDescriptor desc;
    desc.redOp = RedOp::Sum;
    desc.elementsPerBlock = 4;
    desc.paddedBlockBytes = 16;
    desc.numBlocks = 0;
    desc.inputBase = reinterpret_cast<std::uint64_t>(&in);
    desc.outputAddr = reinterpret_cast<std::uint64_t>(out);
    DmaEngine engine;
    EXPECT_EQ(engine.execute(desc), CompletionStatus::Success);
    for (float v : out)
        EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(DmaEngine, OversizedBlockFaults)
{
    // E = 1024 floats exceeds the default 2 KB output buffer (512).
    float dummy = 0.0f;
    std::uint8_t status = 0;
    AggregationDescriptor desc;
    desc.elementsPerBlock = 1024;
    desc.paddedBlockBytes = 4096;
    desc.numBlocks = 0;
    desc.inputBase = reinterpret_cast<std::uint64_t>(&dummy);
    desc.outputAddr = reinterpret_cast<std::uint64_t>(&dummy);
    desc.statusAddr = reinterpret_cast<std::uint64_t>(&status);
    DmaEngine engine;
    EXPECT_EQ(engine.execute(desc), CompletionStatus::Fault);
    EXPECT_EQ(status, static_cast<std::uint8_t>(CompletionStatus::Fault));
    EXPECT_EQ(engine.counters().descriptorsFaulted, 1u);
}

TEST(DmaEngine, QueueRespectsCapacity)
{
    EngineConfig config;
    config.descriptorQueue = 2;
    DmaEngine engine(config);
    // The output write covers elementsPerBlock floats, so the backing
    // buffer must span the whole block, not a single float.
    float dummy[4] = {};
    AggregationDescriptor desc;
    desc.elementsPerBlock = 4;
    desc.paddedBlockBytes = 16;
    desc.inputBase = reinterpret_cast<std::uint64_t>(dummy);
    desc.outputAddr = reinterpret_cast<std::uint64_t>(dummy);
    EXPECT_TRUE(engine.enqueue(desc));
    EXPECT_TRUE(engine.enqueue(desc));
    EXPECT_FALSE(engine.enqueue(desc)); // full
    engine.processAll();
    EXPECT_TRUE(engine.enqueue(desc));
}

CsrGraph
rmatGraph()
{
    RmatParams params;
    params.scale = 8;
    params.avgDegree = 9.0;
    return generateRmat(params);
}

struct DmaLayerFixture
{
    CsrGraph graph;
    AggregationSpec spec;
    DenseMatrix input;
    DenseMatrix weights;
    std::vector<Feature> bias;

    explicit DmaLayerFixture(std::size_t f, CsrGraph g = rmatGraph())
        : graph(std::move(g))
    {
        spec = gcnSpec(graph);
        input = DenseMatrix(graph.numVertices(), f);
        input.fillUniform(-1.0f, 1.0f, 81);
        weights = DenseMatrix(f, 32);
        weights.fillUniform(-0.2f, 0.2f, 82);
        bias.assign(32, 0.02f);
    }
};

TEST(DmaAggregate, MatchesSoftwareAggregation)
{
    DmaLayerFixture fx(128);
    DenseMatrix viaDma(fx.graph.numVertices(), 128);
    DenseMatrix expected(fx.graph.numVertices(), 128);
    dma::dmaAggregate(fx.graph, fx.input, fx.spec, viaDma);
    aggregateReference(fx.graph, fx.input, expected, fx.spec);
    EXPECT_LT(viaDma.maxAbsDiff(expected), 1e-4);
}

TEST(DmaAggregate, SplitsWideFeatureVectors)
{
    // 640 floats > the 512-float output buffer: every vertex needs two
    // descriptors (the Section 5.2 splitting case).
    DmaLayerFixture fx(640);
    DenseMatrix viaDma(fx.graph.numVertices(), 640);
    DenseMatrix expected(fx.graph.numVertices(), 640);
    auto counters = dma::dmaAggregate(fx.graph, fx.input, fx.spec, viaDma);
    aggregateReference(fx.graph, fx.input, expected, fx.spec);
    EXPECT_LT(viaDma.maxAbsDiff(expected), 1e-4);
    EXPECT_EQ(counters.descriptors, 2u * fx.graph.numVertices());
    EXPECT_GT(counters.splitDescriptors, 0u);
}

TEST(PipelinedRunner, MatchesFusedSoftwareLayer)
{
    DmaLayerFixture fx(96);
    const UpdateOp update{&fx.weights, fx.bias, true};

    DenseMatrix refAgg(fx.graph.numVertices(), 96);
    DenseMatrix refOut(fx.graph.numVertices(), 32);
    unfusedLayer(fx.graph, fx.input, fx.spec, update, refAgg, refOut);

    DenseMatrix agg(fx.graph.numVertices(), 96);
    DenseMatrix out(fx.graph.numVertices(), 32);
    dma::pipelinedDmaLayer(fx.graph, fx.input, fx.spec, update, agg, out);
    EXPECT_LT(agg.maxAbsDiff(refAgg), 1e-4);
    EXPECT_LT(out.maxAbsDiff(refOut), 1e-4);
}

TEST(PipelinedRunner, RespectsProcessingOrder)
{
    DmaLayerFixture fx(64);
    const UpdateOp update{&fx.weights, fx.bias, true};
    ProcessingOrder order = localityOrder(fx.graph);

    DenseMatrix refAgg(fx.graph.numVertices(), 64);
    DenseMatrix refOut(fx.graph.numVertices(), 32);
    unfusedLayer(fx.graph, fx.input, fx.spec, update, refAgg, refOut);

    DenseMatrix agg(fx.graph.numVertices(), 64);
    DenseMatrix out(fx.graph.numVertices(), 32);
    dma::pipelinedDmaLayer(fx.graph, fx.input, fx.spec, update, agg, out,
                           order);
    EXPECT_LT(out.maxAbsDiff(refOut), 1e-4);
}

TEST(PipelinedRunner, SmallBlocksAndQueuePressure)
{
    // 150 vertices: the last descriptor block is a partial one.
    DmaLayerFixture fx(48, generateErdosRenyi(150, 1200, false, 83));
    const UpdateOp update{&fx.weights, fx.bias, true};
    EngineConfig engine;
    engine.descriptorQueue = 2; // force mid-block drains

    DenseMatrix refAgg(fx.graph.numVertices(), 48);
    DenseMatrix refOut(fx.graph.numVertices(), 32);
    unfusedLayer(fx.graph, fx.input, fx.spec, update, refAgg, refOut);

    DenseMatrix agg(fx.graph.numVertices(), 48);
    DenseMatrix out(fx.graph.numVertices(), 32);
    dma::pipelinedDmaLayer(fx.graph, fx.input, fx.spec, update, agg, out,
                           {}, engine);
    EXPECT_LT(out.maxAbsDiff(refOut), 1e-4);
}

} // namespace
} // namespace graphite
