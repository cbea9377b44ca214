/**
 * @file
 * Tests of the aggregation kernels (paper Algorithm 1): the vectorised
 * kernel against the scalar reference across graph shapes, feature
 * widths and ψ specs; compressed-input aggregation against dense; and
 * the order-invariance property (a processing order permutes work, not
 * results); and the SAGE-mean row gather against a scalar loop, bit
 * for bit.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "compress/compressed_matrix.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/reorder.h"
#include "kernels/aggregation.h"
#include "kernels/mean_gather.h"

namespace graphite {
namespace {

CsrGraph
graphFor(int kind)
{
    switch (kind) {
      case 0:
        return generateRing(50, 1);
      case 1:
        return generateErdosRenyi(300, 2500, false, 11);
      default: {
        RmatParams params;
        params.scale = 9;
        params.avgDegree = 10.0;
        return generateRmat(params);
      }
    }
}

AggregationSpec
specFor(const CsrGraph &g, int kind)
{
    switch (kind) {
      case 0:
        return sumSpec();
      case 1:
        return gcnSpec(g);
      default:
        return sageSpec(g);
    }
}

class AggregationMatrix
    : public testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(AggregationMatrix, VectorKernelMatchesReference)
{
    const auto [graphKind, specKind, width] = GetParam();
    CsrGraph g = graphFor(graphKind);
    DenseMatrix h(g.numVertices(), static_cast<std::size_t>(width));
    h.fillUniform(-1.0f, 1.0f, 21);
    AggregationSpec spec = specFor(g, specKind);

    DenseMatrix out(g.numVertices(), h.cols());
    DenseMatrix expected(g.numVertices(), h.cols());
    aggregate(g, h, out, spec);
    aggregateReference(g, h, expected, spec);
    EXPECT_LT(out.maxAbsDiff(expected), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AggregationMatrix,
    testing::Combine(testing::Values(0, 1, 2),   // graph shape
                     testing::Values(0, 1, 2),   // spec: sum/gcn/sage
                     testing::Values(16, 100, 256, 300)));

TEST(Aggregation, ProcessingOrderDoesNotChangeResults)
{
    CsrGraph g = graphFor(2);
    DenseMatrix h(g.numVertices(), 64);
    h.fillUniform(-1.0f, 1.0f, 22);
    AggregationSpec spec = gcnSpec(g);

    DenseMatrix identity(g.numVertices(), 64);
    DenseMatrix locality(g.numVertices(), 64);
    DenseMatrix random(g.numVertices(), 64);
    aggregate(g, h, identity, spec);
    ProcessingOrder loc = localityOrder(g);
    aggregate(g, h, locality, spec, loc);
    ProcessingOrder rnd = randomOrder(g, 33);
    aggregate(g, h, random, spec, rnd);
    EXPECT_DOUBLE_EQ(identity.maxAbsDiff(locality), 0.0);
    EXPECT_DOUBLE_EQ(identity.maxAbsDiff(random), 0.0);
}

TEST(Aggregation, IsolatedVertexAggregatesOnlyItself)
{
    GraphBuilder builder(3);
    builder.addEdge(0, 1); // vertex 2 isolated
    CsrGraph g = builder.build();
    DenseMatrix h(3, 16);
    h.at(2, 3) = 5.0f;
    DenseMatrix out(3, 16);
    aggregate(g, h, out, sumSpec());
    EXPECT_FLOAT_EQ(out.at(2, 3), 5.0f);
    for (std::size_t c = 0; c < 16; ++c) {
        if (c != 3) {
            EXPECT_FLOAT_EQ(out.at(2, c), 0.0f);
        }
    }
}

TEST(Aggregation, GcnSpecNormalisesByDegreeProducts)
{
    // Two vertices connected by one undirected edge. With the self
    // term, D' = 2 for both: self factor = 1/2, edge factor = 1/2.
    GraphBuilder builder(2);
    builder.addUndirectedEdge(0, 1);
    CsrGraph g = builder.build();
    AggregationSpec spec = gcnSpec(g);
    EXPECT_NEAR(spec.selfFactor(0), 0.5f, 1e-6);
    EXPECT_NEAR(spec.edgeFactor(0), 0.5f, 1e-6);
}

TEST(Aggregation, SageSpecAveragesNeighborhood)
{
    GraphBuilder builder(3);
    builder.addEdge(0, 1);
    builder.addEdge(0, 2);
    CsrGraph g = builder.build();
    AggregationSpec spec = sageSpec(g);
    // Vertex 0 has degree 2: every term weighted 1/3.
    EXPECT_NEAR(spec.selfFactor(0), 1.0f / 3.0f, 1e-6);
    EXPECT_NEAR(spec.edgeFactor(0), 1.0f / 3.0f, 1e-6);
    EXPECT_NEAR(spec.edgeFactor(1), 1.0f / 3.0f, 1e-6);

    DenseMatrix h(3, 16);
    h.at(0, 0) = 3.0f;
    h.at(1, 0) = 6.0f;
    h.at(2, 0) = 9.0f;
    DenseMatrix out(3, 16);
    aggregate(g, h, out, spec);
    EXPECT_NEAR(out.at(0, 0), (3.0f + 6.0f + 9.0f) / 3.0f, 1e-5);
}

class CompressedAggregation : public testing::TestWithParam<double>
{
};

TEST_P(CompressedAggregation, MatchesDenseAggregation)
{
    CsrGraph g = graphFor(2);
    DenseMatrix h(g.numVertices(), 128);
    h.fillUniform(0.0f, 2.0f, 24);
    h.sparsify(GetParam(), 25);
    CompressedMatrix packed(g.numVertices(), 128);
    packed.compressFrom(h);
    AggregationSpec spec = gcnSpec(g);

    DenseMatrix dense(g.numVertices(), 128);
    DenseMatrix fromPacked(g.numVertices(), 128);
    aggregate(g, h, dense, spec);
    aggregate(g, packed, fromPacked, spec);
    EXPECT_LT(dense.maxAbsDiff(fromPacked), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sparsities, CompressedAggregation,
                         testing::Values(0.0, 0.3, 0.5, 0.8, 0.95));

TEST(Aggregation, SingleVertexKernelMatchesRowOfFullKernel)
{
    CsrGraph g = graphFor(1);
    DenseMatrix h(g.numVertices(), 256);
    h.fillUniform(-1.0f, 1.0f, 26);
    AggregationSpec spec = sageSpec(g);
    DenseMatrix full(g.numVertices(), 256);
    aggregate(g, h, full, spec);

    DenseMatrix single(1, 256);
    aggregateVertex(g, h, 17, spec, single.row(0));
    for (std::size_t c = 0; c < 256; ++c)
        EXPECT_NEAR(single.at(0, c), full.at(17, c), 1e-5);
}

TEST(Aggregation, TransposeOfSymmetricGraphAggregatesIdentically)
{
    // On an undirected (symmetric) graph, transposition is the
    // identity, so the unweighted aggregation over G and Gᵀ must agree
    // exactly — a structural sanity check for the backward pass.
    CsrGraph g = generateErdosRenyi(200, 1200, /*undirected=*/true, 27);
    CsrGraph t = g.transposed();
    DenseMatrix h(g.numVertices(), 32);
    h.fillUniform(0.0f, 1.0f, 27);

    DenseMatrix fwd(g.numVertices(), 32);
    DenseMatrix bwd(g.numVertices(), 32);
    aggregate(g, h, fwd, sumSpec());
    aggregate(t, h, bwd, sumSpec());
    EXPECT_DOUBLE_EQ(fwd.maxAbsDiff(bwd), 0.0);
}

TEST(Aggregation, ValidateSpecCatchesFactorLengthMismatch)
{
    CsrGraph g = generateRing(20, 1);
    // Empty factor arrays mean "all ones" and are always valid.
    EXPECT_EQ(validateSpec(sumSpec(), g), nullptr);
    EXPECT_EQ(validateSpec(gcnSpec(g), g), nullptr);

    // A spec built for one graph applied to another: the factor arrays
    // no longer match |E|/|V| and every kernel entry rejects it before
    // indexing past their ends.
    CsrGraph other = generateRing(24, 1);
    AggregationSpec stale = gcnSpec(g);
    EXPECT_NE(validateSpec(stale, other), nullptr);

    AggregationSpec truncated = gcnSpec(g);
    truncated.edgeFactors.pop_back();
    EXPECT_NE(validateSpec(truncated, g), nullptr);

    AggregationSpec shortSelf = gcnSpec(g);
    shortSelf.selfFactors.pop_back();
    EXPECT_NE(validateSpec(shortSelf, g), nullptr);
}

TEST(MeanGather, MatchesScalarReferenceBitwise)
{
    // meanGatherRow's contract, against a plain scalar loop: self row,
    // then each neighbor in list order, then one multiply by the
    // reciprocal. Every width 1..67 covers the vector remainders; rows
    // are packed at the width itself, so most start unaligned. The
    // lists repeat ids and name the self id; values span six decades
    // so any reassociation would change low bits.
    constexpr VertexId kRows = 24;
    constexpr VertexId kSelf = 5;
    const std::vector<std::vector<VertexId>> lists = {
        {},
        {kSelf},
        {3, 7, 3, kSelf, 0, 19, 7, 7, 12},
        {23, 23, 23, 23, 1, 2, 3, kSelf, kSelf, 22, 9, 14, 0, 18, 6, 3, 11},
    };
    Rng rng(31);
    for (std::size_t width = 1; width <= 67; ++width) {
        std::vector<Feature> table(kRows * width);
        for (Feature &x : table) {
            const float magnitude =
                static_cast<float>(1 << rng.uniformInt(20)) / 1024.0f;
            x = (rng.uniformFloat() - 0.5f) * magnitude;
        }
        const auto rowOf = [&](VertexId v) {
            return table.data() + v * width;
        };
        for (const std::vector<VertexId> &list : lists) {
            std::vector<Feature> expected(width);
            for (std::size_t c = 0; c < width; ++c)
                expected[c] = rowOf(kSelf)[c];
            for (const VertexId u : list) {
                for (std::size_t c = 0; c < width; ++c)
                    expected[c] += rowOf(u)[c];
            }
            const float scale =
                1.0f / (1.0f + static_cast<float>(list.size()));
            for (std::size_t c = 0; c < width; ++c)
                expected[c] *= scale;

            std::vector<Feature> got(width, -1.0f);
            meanGatherRow(kSelf, std::span<const VertexId>(list), rowOf,
                          width, got.data());
            EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                                  width * sizeof(Feature)),
                      0)
                << "width " << width << ", " << list.size()
                << " neighbors";
        }
    }
}

} // namespace
} // namespace graphite
