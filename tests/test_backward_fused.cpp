/**
 * @file
 * Tests of the fused backward pass: the commuted fused kernel against
 * the unfused GEMM-then-aggregate composition and the push-style
 * scatter oracle, a full-model gradient-parity sweep across model
 * kinds, graph sizes in fused blocks, locality and dropout,
 * determinism of the parallel bias-gradient column sum, and the
 * zero-allocation steady-state contract of training and inference
 * workspaces.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "gnn/gnn_model.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "kernels/engine.h"
#include "kernels/fused_layer.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite {
namespace {

CsrGraph
testGraph()
{
    return generateErdosRenyi(150, 1200, false, 97);
}

/** 1e-4 relative tolerance with an absolute floor for tiny values. */
void
expectClose(float got, float ref, const char *what, std::size_t index)
{
    const float tol = 1e-4f * std::max(1.0f, std::abs(ref));
    EXPECT_NEAR(got, ref, tol) << what << "[" << index << "]";
}

/**
 * The three implementations of dh_prev = Aggᵀ(dz·Wᵀ) must agree: the
 * fused commuted kernel, the unfused GEMM-then-aggregate pipeline, and
 * the push-style scatter oracle that walks the forward CSR.
 */
TEST(FusedBackwardKernel, MatchesUnfusedAndScatterOracle)
{
    const CsrGraph g = testGraph();
    const CsrGraph t = g.transposed();
    const AggregationSpec spec = gcnSpec(g);
    const AggregationSpec tSpec = transposeSpec(g, spec, t);
    const std::size_t fIn = 24;
    const std::size_t fOut = 12;

    DenseMatrix weights(fIn, fOut);
    weights.fillUniform(-0.5f, 0.5f, 5);
    DenseMatrix dz(g.numVertices(), fOut);
    dz.fillUniform(-1.0f, 1.0f, 6);
    GemmPlan planNT;
    planNT.pack(GemmMode::NT, weights);

    // Unfused: materialise dAgg = dz·Wᵀ, then aggregate it.
    DenseMatrix dAgg(g.numVertices(), fIn);
    gemm(GemmMode::NT, dz, planNT, dAgg);
    DenseMatrix unfused(g.numVertices(), fIn);
    aggregate(t, dAgg, unfused, tSpec);

    // Scatter oracle: push dAgg rows along the forward CSR.
    DenseMatrix oracle(g.numVertices(), fIn);
    aggregateTransposedPush(g, dAgg, oracle, spec);

    // Fused: aggregate dz blocks, GEMM them while cache-resident.
    DenseMatrix fused(g.numVertices(), fIn);
    fusedLayerBackward(t, dz, tSpec, planNT, fused);

    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (std::size_t c = 0; c < fIn; ++c) {
            expectClose(oracle.at(v, c), unfused.at(v, c), "oracle", c);
            expectClose(fused.at(v, c), unfused.at(v, c), "fused", c);
        }
    }
}

TEST(FusedBackwardKernel, HonorsProcessingOrder)
{
    const CsrGraph g = testGraph();
    const CsrGraph t = g.transposed();
    const AggregationSpec spec = gcnSpec(g);
    const AggregationSpec tSpec = transposeSpec(g, spec, t);

    DenseMatrix weights(16, 8);
    weights.fillUniform(-0.5f, 0.5f, 7);
    DenseMatrix dz(g.numVertices(), 8);
    dz.fillUniform(-1.0f, 1.0f, 8);
    GemmPlan planNT;
    planNT.pack(GemmMode::NT, weights);

    DenseMatrix plain(g.numVertices(), 16);
    fusedLayerBackward(t, dz, tSpec, planNT, plain);

    const ProcessingOrder order = localityOrder(t);
    DenseMatrix ordered(g.numVertices(), 16);
    fusedLayerBackward(t, dz, tSpec, planNT, ordered, order);

    // Every output row is computed independently, so a permuted
    // processing order must not change any value (bit-identical).
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (std::size_t c = 0; c < 16; ++c)
            EXPECT_EQ(plain.at(v, c), ordered.at(v, c)) << v;
    }
}

/** Parallel ordered column sum: exact reference match, bit-stable. */
TEST(BiasGradColumnSum, MatchesSerialReferenceAndIsDeterministic)
{
    DenseMatrix x(5000, 33);
    x.fillUniform(-1.0f, 1.0f, 9);

    std::vector<Feature> reference(33, 0.0f);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c)
            reference[c] += x.at(r, c);
    }

    std::vector<Feature> scratch;
    std::vector<Feature> out1(33);
    std::vector<Feature> out2(33);
    columnSum(x, out1, scratch);
    columnSum(x, out2, scratch);
    for (std::size_t c = 0; c < 33; ++c) {
        EXPECT_EQ(out1[c], out2[c]) << c; // deterministic re-run
        expectClose(out1[c], reference[c], "colsum", c);
    }
}

/**
 * (kind, full fused blocks in the graph, locality, dropout). Each graph
 * holds that many blocks plus a 6-vertex partial one: 4 blocks fill one
 * task and the partial block starts a second; 16 and 64 make several
 * tasks, the last holding only the partial block.
 */
using SweepParam = std::tuple<GnnKind, std::size_t, bool, bool>;

class BackwardGradientParity
    : public ::testing::TestWithParam<SweepParam>
{
};

/**
 * Full-model gradient parity: identical models trained one step with
 * fusion off vs on must produce the same weight and bias gradients to
 * 1e-4 relative. Dropout stays comparable because mask generation
 * depends only on (seed, epoch, layer), not on the kernel path.
 */
TEST_P(BackwardGradientParity, FusedMatchesUnfusedGradients)
{
    const auto [kind, blocks, locality, dropout] = GetParam();
    const auto n = static_cast<VertexId>(blocks * kFusedBlockSize + 6);
    const CsrGraph g = generateErdosRenyi(n, 8 * EdgeId{n}, false, 97);

    GnnModelConfig config;
    config.kind = kind;
    config.featureWidths = {12, 24, 5};
    config.dropoutRate = dropout ? 0.4 : 0.0;
    GnnModel unfusedModel(g, config);
    GnnModel fusedModel(g, config);

    DenseMatrix features(g.numVertices(), 12);
    features.fillUniform(-1.0f, 1.0f, 10);
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 5);

    TechniqueConfig unfusedTech;
    unfusedTech.locality = locality;
    TechniqueConfig fusedTech = unfusedTech;
    fusedTech.fusion = true;

    const auto backward = [&](GnnModel &model,
                              const TechniqueConfig &tech) {
        const DenseMatrix &logits = model.trainForward(features, tech);
        DenseMatrix lossGrad(logits.rows(), logits.cols());
        softmaxCrossEntropy(logits, labels, lossGrad);
        model.trainBackward(lossGrad, tech);
    };
    backward(unfusedModel, unfusedTech);
    backward(fusedModel, fusedTech);

    for (std::size_t k = 0; k < unfusedModel.numLayers(); ++k) {
        const DenseMatrix &refW = unfusedModel.layer(k).weightGrad();
        const DenseMatrix &gotW = fusedModel.layer(k).weightGrad();
        ASSERT_EQ(refW.rows(), gotW.rows());
        ASSERT_EQ(refW.cols(), gotW.cols());
        for (std::size_t r = 0; r < refW.rows(); ++r) {
            for (std::size_t c = 0; c < refW.cols(); ++c) {
                expectClose(gotW.at(r, c), refW.at(r, c), "weightGrad",
                            r * refW.cols() + c);
            }
        }
        const std::span<const Feature> refB =
            unfusedModel.layer(k).biasGrad();
        const std::span<const Feature> gotB =
            fusedModel.layer(k).biasGrad();
        ASSERT_EQ(refB.size(), gotB.size());
        for (std::size_t c = 0; c < refB.size(); ++c)
            expectClose(gotB[c], refB[c], "biasGrad", c);
    }
}

std::string
sweepName(const ::testing::TestParamInfo<SweepParam> &info)
{
    const auto [kind, blocks, locality, dropout] = info.param;
    return gnnKindName(kind) + "_B" + std::to_string(blocks) +
           (locality ? "_loc" : "_seq") + (dropout ? "_drop" : "_nodrop");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BackwardGradientParity,
    ::testing::Combine(::testing::Values(GnnKind::Gcn, GnnKind::Sage,
                                         GnnKind::Gin),
                       ::testing::Values(std::size_t{4}, std::size_t{16},
                                         std::size_t{64}),
                       ::testing::Bool(), ::testing::Bool()),
    sweepName);

/**
 * The zero-allocation contract: after the first epoch sizes every
 * workspace, further epochs must not move any persistent buffer — the
 * pointer set reported by workspacePointers() stays identical.
 */
TEST(SteadyStateAllocation, TrainingWorkspacesStayPinned)
{
    const CsrGraph g = testGraph();
    GnnModelConfig config;
    config.featureWidths = {12, 24, 5};
    GnnModel model(g, config);

    DenseMatrix features(g.numVertices(), 12);
    features.fillUniform(-1.0f, 1.0f, 11);
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 5);

    TrainerConfig trainerConfig;
    trainerConfig.epochs = 1;
    trainerConfig.tech = TechniqueConfig::withFusion();
    Trainer trainer(model, features, labels, trainerConfig);

    trainer.trainEpoch(); // warm-up epoch sizes every buffer
    trainer.trainEpoch();
    const std::vector<const void *> before = model.workspacePointers();
    trainer.trainEpoch();
    trainer.trainEpoch();
    const std::vector<const void *> after = model.workspacePointers();
    EXPECT_EQ(before, after);
}

TEST(SteadyStateAllocation, InferenceWorkspacesStayPinned)
{
    const CsrGraph g = testGraph();
    GnnModelConfig config;
    config.featureWidths = {12, 24, 5};
    GnnModel model(g, config);

    DenseMatrix features(g.numVertices(), 12);
    features.fillUniform(-1.0f, 1.0f, 12);

    for (const TechniqueConfig &tech :
         {TechniqueConfig::basic(), TechniqueConfig::combined()}) {
        const DenseMatrix &first = model.inference(features, tech);
        const void *logitsPtr = first.data();
        const std::vector<const void *> before =
            model.workspacePointers();
        const DenseMatrix &second = model.inference(features, tech);
        EXPECT_EQ(logitsPtr, second.data()) << tech.label();
        EXPECT_EQ(before, model.workspacePointers()) << tech.label();
    }
}

} // namespace
} // namespace graphite
