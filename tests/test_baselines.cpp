/**
 * @file
 * Differential tests pinning the DistGNN- and MKL-style baselines to
 * the reference math — the comparisons in Figure 11 are only fair if
 * all implementations compute identical results.
 */

#include <gtest/gtest.h>

#include "baselines/baseline_layers.h"
#include "graph/generators.h"
#include "kernels/fused_layer.h"
#include "tensor/spmm.h"

namespace graphite {
namespace {

struct Fixture
{
    CsrGraph graph;
    AggregationSpec spec;
    DenseMatrix input;
    DenseMatrix weights;
    std::vector<Feature> bias;

    Fixture()
    {
        RmatParams params;
        params.scale = 8;
        params.avgDegree = 10.0;
        graph = generateRmat(params);
        spec = gcnSpec(graph);
        input = DenseMatrix(graph.numVertices(), 64);
        input.fillUniform(-1.0f, 1.0f, 71);
        weights = DenseMatrix(64, 48);
        weights.fillUniform(-0.3f, 0.3f, 72);
        bias.assign(48, -0.05f);
    }

    UpdateOp
    update() const
    {
        return UpdateOp{&weights, bias, true};
    }
};

TEST(Baselines, DistGnnAggregationMatchesReference)
{
    Fixture fx;
    DenseMatrix out(fx.graph.numVertices(), 64);
    DenseMatrix expected(fx.graph.numVertices(), 64);
    distgnnAggregate(fx.graph, fx.input, out, fx.spec);
    aggregateReference(fx.graph, fx.input, expected, fx.spec);
    EXPECT_LT(out.maxAbsDiff(expected), 1e-4);
}

TEST(Baselines, DistGnnLayerMatchesGraphiteUnfused)
{
    Fixture fx;
    DenseMatrix aggA(fx.graph.numVertices(), 64);
    DenseMatrix outA(fx.graph.numVertices(), 48);
    distgnnLayer(fx.graph, fx.input, fx.spec, fx.update(), aggA, outA);

    DenseMatrix aggB(fx.graph.numVertices(), 64);
    DenseMatrix outB(fx.graph.numVertices(), 48);
    unfusedLayer(fx.graph, fx.input, fx.spec, fx.update(), aggB, outB);
    EXPECT_LT(outA.maxAbsDiff(outB), 1e-4);
}

TEST(Baselines, MklLayerMatchesGraphiteUnfused)
{
    Fixture fx;
    DenseMatrix aggA(fx.graph.numVertices(), 64);
    DenseMatrix outA(fx.graph.numVertices(), 48);
    mklLayer(fx.graph, fx.input, fx.spec, fx.update(), aggA, outA);

    DenseMatrix aggB(fx.graph.numVertices(), 64);
    DenseMatrix outB(fx.graph.numVertices(), 48);
    unfusedLayer(fx.graph, fx.input, fx.spec, fx.update(), aggB, outB);
    EXPECT_LT(outA.maxAbsDiff(outB), 1e-4);
}

TEST(Baselines, AllThreeAgreeOnSageSpec)
{
    Fixture fx;
    AggregationSpec sage = sageSpec(fx.graph);
    DenseMatrix a(fx.graph.numVertices(), 64);
    DenseMatrix b(fx.graph.numVertices(), 64);
    DenseMatrix c(fx.graph.numVertices(), 64);
    distgnnAggregate(fx.graph, fx.input, a, sage);
    spmm(fx.graph, fx.input, b, sage.edgeFactors, sage.selfFactors);
    aggregate(fx.graph, fx.input, c, sage);
    EXPECT_LT(a.maxAbsDiff(b), 1e-4);
    EXPECT_LT(a.maxAbsDiff(c), 1e-4);
}

} // namespace
} // namespace graphite
