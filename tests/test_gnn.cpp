/**
 * @file
 * Tests of the GNN layer/model: transposed-spec correctness, numerical
 * gradient checks of the full backward pass, technique-equivalence of
 * the forward pass, and training convergence.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "gnn/gnn_model.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/partition/partitioner.h"
#include "kernels/fused_layer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/row_ops.h"

namespace graphite {
namespace {

CsrGraph
testGraph()
{
    return generateErdosRenyi(60, 400, false, 41);
}

TEST(TransposeSpec, FactorsFollowEdgesAcrossTransposition)
{
    CsrGraph g = testGraph();
    CsrGraph t = g.transposed();
    AggregationSpec spec = gcnSpec(g);
    AggregationSpec tSpec = transposeSpec(g, spec, t);

    // For every original edge v->u with factor f, the transposed graph
    // must contain edge u->v carrying the same factor.
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e) {
            const VertexId u = g.colIdx()[e];
            bool found = false;
            for (EdgeId te = t.rowBegin(u); te < t.rowEnd(u); ++te) {
                if (t.colIdx()[te] == v &&
                    std::abs(tSpec.edgeFactors[te] -
                             spec.edgeFactors[e]) < 1e-7f) {
                    found = true;
                    break;
                }
            }
            EXPECT_TRUE(found) << "edge " << v << "->" << u;
        }
    }
}

TEST(TransposeSpec, TransposedAggregationIsAdjointOfForward)
{
    // <Agg(x), y> == <x, Aggᵀ(y)> for all x, y — the defining property
    // the backward pass relies on.
    CsrGraph g = testGraph();
    CsrGraph t = g.transposed();
    AggregationSpec spec = gcnSpec(g);
    AggregationSpec tSpec = transposeSpec(g, spec, t);

    DenseMatrix x(g.numVertices(), 8);
    DenseMatrix y(g.numVertices(), 8);
    x.fillUniform(-1.0f, 1.0f, 42);
    y.fillUniform(-1.0f, 1.0f, 43);

    DenseMatrix ax(g.numVertices(), 8);
    DenseMatrix aty(g.numVertices(), 8);
    aggregate(g, x, ax, spec);
    aggregate(t, y, aty, tSpec);

    double lhs = 0.0;
    double rhs = 0.0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (std::size_t c = 0; c < 8; ++c) {
            lhs += double{ax.at(v, c)} * y.at(v, c);
            rhs += double{x.at(v, c)} * aty.at(v, c);
        }
    }
    EXPECT_NEAR(lhs, rhs, std::abs(lhs) * 1e-4 + 1e-4);
}

/**
 * Numerical gradient check of a one-layer GCN with softmax loss:
 * perturb a weight, re-run forward, compare the loss delta with the
 * analytic gradient.
 */
TEST(GnnLayer, WeightGradientMatchesFiniteDifference)
{
    CsrGraph g = generateErdosRenyi(20, 100, false, 44);
    GnnModelConfig config;
    config.kind = GnnKind::Gcn;
    config.featureWidths = {6, 4};
    config.dropoutRate = 0.0; // determinism for the check
    GnnModel model(g, config);

    DenseMatrix features(g.numVertices(), 6);
    features.fillUniform(-1.0f, 1.0f, 45);
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 4);

    TechniqueConfig tech;
    auto lossOf = [&]() {
        const DenseMatrix &logits = model.trainForward(features, tech);
        DenseMatrix grad(logits.rows(), logits.cols());
        return softmaxCrossEntropy(logits, labels, grad);
    };

    // Analytic gradients.
    const DenseMatrix &logits = model.trainForward(features, tech);
    DenseMatrix lossGrad(logits.rows(), logits.cols());
    softmaxCrossEntropy(logits, labels, lossGrad);
    model.trainBackward(lossGrad, tech);
    const DenseMatrix &analytic = model.layer(0).weightGrad();

    // Finite differences on a few weights.
    const float eps = 1e-3f;
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 2; ++c) {
            Feature &w = model.layer(0).weights().at(r, c);
            const Feature orig = w;
            w = orig + eps;
            const double lossPlus = lossOf();
            w = orig - eps;
            const double lossMinus = lossOf();
            w = orig;
            const double numeric = (lossPlus - lossMinus) / (2.0 * eps);
            EXPECT_NEAR(analytic.at(r, c), numeric,
                        5e-3 * std::max(1.0, std::abs(numeric)))
                << "weight (" << r << "," << c << ")";
        }
    }
}

TEST(GnnLayer, TwoLayerGradientMatchesFiniteDifference)
{
    CsrGraph g = generateErdosRenyi(16, 64, false, 46);
    GnnModelConfig config;
    config.kind = GnnKind::Sage;
    config.featureWidths = {5, 8, 3};
    config.dropoutRate = 0.0;
    GnnModel model(g, config);

    DenseMatrix features(g.numVertices(), 5);
    features.fillUniform(-1.0f, 1.0f, 47);
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 3);

    TechniqueConfig tech;
    auto lossOf = [&]() {
        const DenseMatrix &logits = model.trainForward(features, tech);
        DenseMatrix grad(logits.rows(), logits.cols());
        return softmaxCrossEntropy(logits, labels, grad);
    };

    const DenseMatrix &logits = model.trainForward(features, tech);
    DenseMatrix lossGrad(logits.rows(), logits.cols());
    softmaxCrossEntropy(logits, labels, lossGrad);
    model.trainBackward(lossGrad, tech);
    // Check a first-layer weight — its gradient flows through the
    // ReLU, the second aggregation and the transposed aggregation.
    const DenseMatrix analytic = model.layer(0).weightGrad();

    const float eps = 1e-3f;
    for (std::size_t r = 0; r < 2; ++r) {
        Feature &w = model.layer(0).weights().at(r, 1);
        const Feature orig = w;
        w = orig + eps;
        const double lossPlus = lossOf();
        w = orig - eps;
        const double lossMinus = lossOf();
        w = orig;
        const double numeric = (lossPlus - lossMinus) / (2.0 * eps);
        EXPECT_NEAR(analytic.at(r, 1), numeric,
                    1e-2 * std::max(1.0, std::abs(numeric)));
    }
}

TEST(GnnModel, AllTechniquePathsProduceSameLogits)
{
    CsrGraph g = testGraph();
    GnnModelConfig config;
    config.featureWidths = {32, 48, 5};
    config.dropoutRate = 0.0;
    GnnModel model(g, config);
    DenseMatrix features(g.numVertices(), 32);
    features.fillUniform(-1.0f, 1.0f, 48);
    features.sparsify(0.5, 49); // give compression real zeros

    const DenseMatrix base =
        model.inference(features, TechniqueConfig::basic());
    for (const TechniqueConfig &tech :
         {TechniqueConfig::withFusion(), TechniqueConfig::withCompression(),
          TechniqueConfig::combined(),
          TechniqueConfig::combinedLocality()}) {
        const DenseMatrix out = model.inference(features, tech);
        EXPECT_LT(base.maxAbsDiff(out), 1e-3)
            << "technique " << tech.label();
    }
}

TEST(GnnModel, SageAndGcnDiffer)
{
    CsrGraph g = testGraph();
    GnnModelConfig gcn;
    gcn.kind = GnnKind::Gcn;
    gcn.featureWidths = {16, 4};
    GnnModelConfig sage = gcn;
    sage.kind = GnnKind::Sage;
    GnnModel a(g, gcn);
    GnnModel b(g, sage);
    DenseMatrix features(g.numVertices(), 16);
    features.fillUniform(0.1f, 1.0f, 50);
    const DenseMatrix outA = a.inference(features,
                                         TechniqueConfig::basic());
    const DenseMatrix outB = b.inference(features,
                                         TechniqueConfig::basic());
    EXPECT_GT(outA.maxAbsDiff(outB), 1e-4);
}

TEST(GnnModel, DeepNetworksTrainEndToEnd)
{
    // The paper motivates full-batch CPUs with "wider and deeper"
    // networks: a 4-layer stack must forward/backward cleanly with all
    // techniques enabled.
    CsrGraph g = generateBarabasiAlbert(200, 4, 57);
    GnnModelConfig config;
    config.featureWidths = {16, 32, 32, 32, 4};
    config.dropoutRate = 0.2;
    GnnModel model(g, config);
    EXPECT_EQ(model.numLayers(), 4u);
    DenseMatrix features(g.numVertices(), 16);
    features.fillUniform(-1.0f, 1.0f, 58);
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 4);

    const TechniqueConfig tech = TechniqueConfig::combinedLocality();
    double first = 0.0;
    double last = 0.0;
    for (int epoch = 0; epoch < 8; ++epoch) {
        const DenseMatrix &logits = model.trainForward(features, tech);
        DenseMatrix grad(logits.rows(), logits.cols());
        const double loss = softmaxCrossEntropy(logits, labels, grad);
        if (epoch == 0)
            first = loss;
        last = loss;
        model.trainBackward(grad, tech);
        model.sgdStep(0.2f);
    }
    EXPECT_LT(last, first);
}

TEST(Trainer, LossDecreasesOnLearnableTask)
{
    CsrGraph g = generateBarabasiAlbert(300, 4, 51);
    SyntheticTask task = makeSyntheticTask(g, 4, 16, 0.2, 52);
    GnnModelConfig config;
    config.featureWidths = {16, 32, 4};
    config.dropoutRate = 0.1;
    GnnModel model(g, config);
    TrainerConfig tc;
    tc.epochs = 15;
    tc.learningRate = 0.3f;
    Trainer trainer(model, task.features, task.labels, tc);
    auto history = trainer.train();
    ASSERT_EQ(history.size(), 15u);
    EXPECT_LT(history.back().loss, history.front().loss * 0.8);
    EXPECT_GT(trainer.evaluate(), 0.5);
}

TEST(Trainer, CheckNumericsDetectsPoisonedWeights)
{
    CsrGraph g = generateBarabasiAlbert(120, 3, 61);
    SyntheticTask task = makeSyntheticTask(g, 4, 8, 0.2, 62);
    GnnModelConfig config;
    config.featureWidths = {8, 16, 4};

    // Clean run first: the sweep must not fire on healthy training.
    {
        GnnModel model(g, config);
        TrainerConfig tc;
        tc.checkNumerics = true;
        Trainer trainer(model, task.features, task.labels, tc);
        EXPECT_NO_THROW(trainer.trainEpoch());
    }

    // Poison one weight: the NaN propagates through the update-phase
    // GEMM into the logits, where the post-forward sweep catches it
    // before the epoch's stats are reported as if nothing happened.
    {
        GnnModel model(g, config);
        model.layer(0).weights().at(0, 0) =
            std::numeric_limits<float>::quiet_NaN();
        TrainerConfig tc;
        tc.checkNumerics = true;
        Trainer trainer(model, task.features, task.labels, tc);
        EXPECT_THROW(trainer.trainEpoch(), std::runtime_error);
    }

    // Off by default: the poisoned run completes (garbage loss, no
    // throw), which is exactly why the opt-in sweep exists.
    {
        GnnModel model(g, config);
        model.layer(0).weights().at(0, 0) =
            std::numeric_limits<float>::quiet_NaN();
        TrainerConfig tc;
        Trainer trainer(model, task.features, task.labels, tc);
        EXPECT_NO_THROW(trainer.trainEpoch());
    }
}

TEST(Trainer, TechniquesDoNotChangeTrainingTrajectory)
{
    // With dropout off, training with all techniques must follow the
    // same loss trajectory as the basic path (same math, same seeds).
    CsrGraph g = generateErdosRenyi(100, 700, false, 53);
    SyntheticTask task = makeSyntheticTask(g, 3, 8, 0.1, 54);

    auto runLosses = [&](const TechniqueConfig &tech) {
        GnnModelConfig config;
        config.featureWidths = {8, 16, 3};
        config.dropoutRate = 0.0;
        config.seed = 99;
        GnnModel model(g, config);
        TrainerConfig tc;
        tc.epochs = 5;
        tc.tech = tech;
        Trainer trainer(model, task.features, task.labels, tc);
        std::vector<double> losses;
        for (const auto &epoch : trainer.train())
            losses.push_back(epoch.loss);
        return losses;
    };

    const auto base = runLosses(TechniqueConfig::basic());
    const auto combined = runLosses(TechniqueConfig::combinedLocality());
    ASSERT_EQ(base.size(), combined.size());
    for (std::size_t i = 0; i < base.size(); ++i)
        EXPECT_NEAR(base[i], combined[i],
                    std::abs(base[i]) * 5e-3 + 5e-4);
}

TEST(SyntheticTask, LabelsCorrelateWithStructure)
{
    CsrGraph g = generateBarabasiAlbert(400, 3, 55);
    SyntheticTask task = makeSyntheticTask(g, 4, 8, 0.1, 56);
    // After label propagation, neighbors should agree more often than
    // the 25% random baseline.
    std::size_t agree = 0;
    std::size_t total = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (VertexId u : g.neighbors(v)) {
            agree += task.labels[v] == task.labels[u];
            ++total;
        }
    }
    EXPECT_GT(static_cast<double>(agree) / total, 0.4);
}

// ---------------------------------------------------------------------
// Layer direction: a fused, Sum-reduce, narrowing layer projects first
// (Z = X·W, then Agg(Z)); everything else aggregates first.
// ---------------------------------------------------------------------

/** Relative Frobenius distance of @p got from @p ref. */
double
relFrobenius(std::span<const Feature> got, std::span<const Feature> ref)
{
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const double d = double{got[i]} - double{ref[i]};
        num += d * d;
        den += double{ref[i]} * double{ref[i]};
    }
    return den == 0.0 ? std::sqrt(num) : std::sqrt(num / den);
}

/** Logical (unpadded) elements of @p m, row-major. */
std::vector<Feature>
elements(const DenseMatrix &m)
{
    std::vector<Feature> out;
    for (std::size_t r = 0; r < m.rows(); ++r)
        out.insert(out.end(), m.row(r), m.row(r) + m.cols());
    return out;
}

double
relFrobenius(const DenseMatrix &got, const DenseMatrix &ref)
{
    EXPECT_EQ(got.rows(), ref.rows());
    EXPECT_EQ(got.cols(), ref.cols());
    return relFrobenius(elements(got), elements(ref));
}

AggregationSpec
specOf(GnnKind kind, const CsrGraph &g)
{
    switch (kind) {
      case GnnKind::Gcn:
        return gcnSpec(g);
      case GnnKind::Sage:
        return sageSpec(g);
      case GnnKind::Gin:
        return ginSpec(g);
    }
    return {};
}

enum class Direction { Flat, Locality, Sharded, DelayedHalo };

const char *
directionName(Direction d)
{
    switch (d) {
      case Direction::Flat:
        return "flat";
      case Direction::Locality:
        return "locality";
      case Direction::Sharded:
        return "sharded4";
      case Direction::DelayedHalo:
        return "delayed";
    }
    return "?";
}

/** A graph with its transpose, specs, orders and K=4 plans. */
struct ScheduledGraph
{
    ScheduledGraph(GnnKind kind, CsrGraph graph)
        : g(std::move(graph)), gt(g.transposed()), spec(specOf(kind, g)),
          specT(transposeSpec(g, spec, gt)), order(localityOrder(g)),
          orderT(localityOrder(gt)),
          plan(makePartitionPlan(g, {.numShards = 4})),
          planT(makePartitionPlan(gt, {.numShards = 4}))
    {
    }

    CsrGraph g;
    CsrGraph gt;
    AggregationSpec spec;
    AggregationSpec specT;
    ProcessingOrder order;
    ProcessingOrder orderT;
    PartitionPlan plan;
    PartitionPlan planT;
};

/** What one layer forward + backward produces. */
struct LayerRun
{
    DenseMatrix out;
    DenseMatrix weightGrad;
    std::vector<Feature> biasGrad;
    DenseMatrix gradIn;
};

/**
 * One training forward and backward of @p layer from @p x with upstream
 * gradient @p dh, under @p tech and direction @p d.
 */
LayerRun
runLayer(GnnLayer &layer, const ScheduledGraph &sg, const DenseMatrix &x,
         const DenseMatrix &dh, TechniqueConfig tech, Direction d)
{
    std::span<const VertexId> order;
    std::span<const VertexId> orderT;
    const PartitionPlan *plan = nullptr;
    const PartitionPlan *planT = nullptr;
    if (d == Direction::Locality) {
        order = sg.order;
        orderT = sg.orderT;
    } else if (d != Direction::Flat) {
        tech.shards = 4;
        tech.delayedHalo = d == Direction::DelayedHalo;
        plan = &sg.plan;
        planT = &sg.planT;
    }
    LayerContext ctx;
    layer.forwardTraining(sg.g, sg.spec, x, nullptr, nullptr, ctx, false,
                          order, plan, tech);
    LayerRun run;
    run.out = ctx.output;
    DenseMatrix grad = dh;
    run.gradIn = DenseMatrix(x.rows(), x.cols());
    layer.backward(sg.gt, sg.specT, ctx, grad, &run.gradIn, orderT, planT,
                   tech);
    run.weightGrad = layer.weightGrad();
    run.biasGrad.assign(layer.biasGrad().begin(), layer.biasGrad().end());
    return run;
}

/** (kind, precision, direction, widths) */
using ProjectedParam =
    std::tuple<GnnKind, Precision, Direction, std::pair<int, int>>;

class ProjectedLayerParity : public ::testing::TestWithParam<ProjectedParam>
{
};

/**
 * A projecting layer against the aggregate-first oracles: the forward
 * against unfusedLayer (1e-5 relative Frobenius in fp32; bf16 at the
 * 2% bound Bf16Model.InferenceTracksFp32AcrossTechniques uses), and
 * dW, db and dh_prev of one step against basic() (1e-4 in fp32; bf16
 * at the 10% bound of Bf16GradientParity). Exact sharding must be
 * bitwise equal to flat. The bf16 layer has no ReLU: bf16's ~0.3%
 * forward error flips the ReLU mask of near-zero outputs, and those
 * flips (which the aggregate-first bf16 path suffers just as much)
 * would swamp the rounding error the gate is meant to bound.
 */
TEST_P(ProjectedLayerParity, MatchesAggregateFirstOracles)
{
    const auto [kind, precision, direction, widths] = GetParam();
    const std::size_t fin = widths.first;
    const std::size_t fout = widths.second;
    const ScheduledGraph sg(kind, generateBarabasiAlbert(180, 4, 71));
    const VertexId n = sg.g.numVertices();

    const bool fp32 = precision == Precision::Fp32;
    GnnLayer layer(fin, fout, fp32);
    layer.initWeights(72);
    for (std::size_t c = 0; c < fout; ++c)
        layer.bias()[c] = 0.05f * static_cast<float>(c) - 0.1f;
    DenseMatrix x(n, fin);
    x.fillUniform(-1.0f, 1.0f, 73);
    DenseMatrix dh(n, fout);
    dh.fillUniform(-1.0f, 1.0f, 74);

    TechniqueConfig tech = TechniqueConfig::withFusion();
    tech.precision = precision;
    ASSERT_TRUE(layer.projectsFirst(sg.spec, tech));
    ASSERT_FALSE(layer.projectsFirst(sg.spec, TechniqueConfig::basic()));

    DenseMatrix agg(n, fin);
    DenseMatrix oracle(n, fout);
    const GnnLayer &constLayer = layer; // keeps the plan cache precise
    unfusedLayer(sg.g, x, sg.spec,
                 {&constLayer.weights(), layer.bias(), layer.hasRelu()},
                 agg, oracle);
    const LayerRun basic = runLayer(layer, sg, x, dh,
                                    TechniqueConfig::basic(),
                                    Direction::Flat);
    const LayerRun got = runLayer(layer, sg, x, dh, tech, direction);

    EXPECT_LT(relFrobenius(got.out, oracle), fp32 ? 1e-5 : 0.02);
    const double gradTol = fp32 ? 1e-4 : 0.10;
    EXPECT_LT(relFrobenius(got.weightGrad, basic.weightGrad), gradTol);
    EXPECT_LT(relFrobenius(got.biasGrad, basic.biasGrad), gradTol);
    EXPECT_LT(relFrobenius(got.gradIn, basic.gradIn), gradTol);

    if (direction == Direction::Sharded) {
        const LayerRun flat = runLayer(layer, sg, x, dh, tech,
                                       Direction::Flat);
        EXPECT_EQ(elements(got.out), elements(flat.out));
        EXPECT_EQ(elements(got.weightGrad), elements(flat.weightGrad));
        EXPECT_EQ(got.biasGrad, flat.biasGrad);
        EXPECT_EQ(elements(got.gradIn), elements(flat.gradIn));
    }
}

std::string
projectedName(const ::testing::TestParamInfo<ProjectedParam> &info)
{
    const auto [kind, precision, direction, widths] = info.param;
    return gnnKindName(kind) + "_" + precisionName(precision) + "_" +
           directionName(direction) + "_" + std::to_string(widths.first) +
           "to" + std::to_string(widths.second);
}

INSTANTIATE_TEST_SUITE_P(
    Table, ProjectedLayerParity,
    ::testing::Combine(::testing::Values(GnnKind::Gcn, GnnKind::Sage,
                                         GnnKind::Gin),
                       ::testing::Values(Precision::Fp32, Precision::Bf16),
                       ::testing::Values(Direction::Flat,
                                         Direction::Locality,
                                         Direction::Sharded,
                                         Direction::DelayedHalo),
                       ::testing::Values(std::pair{48, 5},
                                         std::pair{67, 3})),
    projectedName);

/** (widths, precision, direction) */
using ChainParam =
    std::tuple<std::vector<std::size_t>, Precision, Direction>;

class InferenceChain : public ::testing::TestWithParam<ChainParam>
{
};

/**
 * GnnModel::inference folds a projecting layer's GEMM into the previous
 * layer's fused block; driving the layers one at a time (each
 * projecting with its own GEMM) must give the same logits.
 */
TEST_P(InferenceChain, MatchesLayersDrivenOneByOne)
{
    const auto [widths, precision, direction] = GetParam();
    const CsrGraph g = generateBarabasiAlbert(180, 4, 75);
    GnnModelConfig config;
    config.kind = GnnKind::Sage;
    config.featureWidths = widths;
    GnnModel model(g, config);
    DenseMatrix x(g.numVertices(), widths.front());
    x.fillUniform(-1.0f, 1.0f, 76);

    TechniqueConfig tech = TechniqueConfig::withFusion();
    tech.precision = precision;
    tech.locality = direction == Direction::Locality;
    if (direction == Direction::Sharded ||
        direction == Direction::DelayedHalo) {
        tech.shards = 4;
        tech.delayedHalo = direction == Direction::DelayedHalo;
    }
    const DenseMatrix chained = model.inference(x, tech);

    const std::span<const VertexId> order = model.localityOrderFor(tech);
    const PartitionPlan *plan = model.partitionPlanFor(tech);
    Bf16Matrix xBf16(x.rows(), x.cols());
    xBf16.fromDense(x);
    DenseMatrix in = x;
    for (std::size_t k = 0; k < model.numLayers(); ++k) {
        const GnnLayer &layer = model.layer(k);
        EXPECT_EQ(layer.projectsFirst(model.spec(), tech),
                  layer.outFeatures() < layer.inFeatures());
        DenseMatrix out(g.numVertices(), layer.outFeatures());
        const bool bf16In = k == 0 && precision == Precision::Bf16;
        layer.forwardInference(g, model.spec(), in, nullptr,
                               bf16In ? &xBf16 : nullptr, out, nullptr,
                               nullptr, order, plan, tech);
        in = std::move(out);
    }
    EXPECT_LT(relFrobenius(chained, in), 1e-6);
    // And the chain still tracks the aggregate-first oracle.
    const DenseMatrix &basic =
        model.inference(x, TechniqueConfig::basic());
    EXPECT_LT(relFrobenius(chained, basic),
              precision == Precision::Fp32 ? 1e-5 : 0.02);
}

std::string
chainName(const ::testing::TestParamInfo<ChainParam> &info)
{
    const auto [widths, precision, direction] = info.param;
    std::string name;
    for (const std::size_t w : widths)
        name += std::to_string(w) + "_";
    return name + precisionName(precision) + "_" +
           directionName(direction);
}

INSTANTIATE_TEST_SUITE_P(
    Models, InferenceChain,
    ::testing::Combine(
        ::testing::Values(std::vector<std::size_t>{16, 48, 24, 5},
                          std::vector<std::size_t>{67, 48, 5}),
        ::testing::Values(Precision::Fp32, Precision::Bf16),
        ::testing::Values(Direction::Flat, Direction::Locality,
                          Direction::Sharded, Direction::DelayedHalo)),
    chainName);

/** Metric deltas of one call, with the registry on for its duration. */
template <typename Fn>
std::uint64_t
counterDelta(const char *name, Fn &&fn)
{
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    const bool wasEnabled = registry.enabled();
    registry.setEnabled(true);
    obs::Counter &counter = registry.counter(name);
    const std::uint64_t before = counter.value();
    fn();
    const std::uint64_t delta = counter.value() - before;
    registry.setEnabled(wasEnabled);
    return delta;
}

/**
 * The counters pin the direction: a projecting layer gathers
 * (|E| + |V|) rows of Z's row bytes and its one GEMM counts
 * 2·|V|·F_in·F_out flops, so with row widths that need no padding the
 * gathered bytes drop by exactly F_in/F_out against basic().
 */
TEST(ProjectedLayerCounters, BytesAndFlopsFollowTheDirection)
{
    const CsrGraph g = generateBarabasiAlbert(300, 4, 77);
    const AggregationSpec spec = gcnSpec(g);
    const VertexId n = g.numVertices();
    const std::uint64_t rows = g.numEdges() + n;
    constexpr std::size_t kIn = 128;
    constexpr std::size_t kOut = 16;
    GnnLayer layer(kIn, kOut, true);
    layer.initWeights(78);
    DenseMatrix x(n, kIn);
    x.fillUniform(-1.0f, 1.0f, 79);
    DenseMatrix out(n, kOut);
    const TechniqueConfig fused = TechniqueConfig::withFusion();
    const auto forward = [&](const TechniqueConfig &tech) {
        layer.forwardInference(g, spec, x, nullptr, nullptr, out, nullptr,
                               nullptr, {}, nullptr, tech);
    };

    const std::uint64_t projectedBytes =
        counterDelta("fused.bytes_gathered", [&] { forward(fused); });
    EXPECT_EQ(projectedBytes, rows * kOut * sizeof(Feature));
    const std::uint64_t gemmFlops =
        counterDelta("gemm.flops", [&] { forward(fused); });
    EXPECT_EQ(gemmFlops, 2ull * n * kIn * kOut);
    const std::uint64_t basicBytes = counterDelta(
        "agg.bytes_gathered", [&] { forward(TechniqueConfig::basic()); });
    EXPECT_EQ(basicBytes, rows * kIn * sizeof(Feature));
    EXPECT_EQ(basicBytes / projectedBytes, kIn / kOut);

    // The trace shows which direction the layer took.
    obs::TraceRecorder &trace = obs::TraceRecorder::global();
    trace.reset();
    trace.setEnabled(true);
    forward(fused);
    forward(TechniqueConfig::basic());
    trace.setEnabled(false);
    std::size_t projectSpans = 0;
    for (const obs::TraceEvent &event : trace.collect())
        projectSpans += std::string(event.name) == "layer.project";
    trace.reset();
    EXPECT_EQ(projectSpans, 1u);
}

/**
 * Equal widths and Max reduce keep aggregate-first: the fused driver
 * gathers full F_in-wide rows and no projection GEMM runs.
 */
TEST(ProjectedLayerCounters, EqualWidthsAndMaxReduceAggregateFirst)
{
    const CsrGraph g = generateBarabasiAlbert(300, 4, 80);
    const VertexId n = g.numVertices();
    const std::uint64_t rows = g.numEdges() + n;
    const TechniqueConfig tech = TechniqueConfig::withFusion();
    const auto gathered = [&](std::size_t fin, std::size_t fout,
                              const AggregationSpec &spec) {
        GnnLayer layer(fin, fout, true);
        layer.initWeights(81);
        EXPECT_FALSE(layer.projectsFirst(spec, tech));
        DenseMatrix x(n, fin);
        x.fillUniform(-1.0f, 1.0f, 82);
        DenseMatrix out(n, fout);
        std::uint64_t gemmFlops = 0;
        const std::uint64_t bytes =
            counterDelta("fused.bytes_gathered", [&] {
                gemmFlops = counterDelta("gemm.flops", [&] {
                    layer.forwardInference(g, spec, x, nullptr, nullptr,
                                           out, nullptr, nullptr, {},
                                           nullptr, tech);
                });
            });
        EXPECT_EQ(gemmFlops, 0u);
        return bytes;
    };
    // 24 floats pad to a 32-float row.
    EXPECT_EQ(gathered(24, 24, gcnSpec(g)), rows * 32 * sizeof(Feature));
    EXPECT_EQ(gathered(48, 5, maxSpec()), rows * 48 * sizeof(Feature));
}

/**
 * Only what a gather reads is packed: after a combinedLocality() epoch
 * the logits carry no compressed copy, and neither does the input of a
 * projecting layer; a hidden layer feeding an aggregate-first layer
 * keeps its copy.
 */
TEST(Trainer, PacksOnlyActivationsANextLayerGathers)
{
    const CsrGraph g = generateErdosRenyi(100, 700, false, 83);
    SyntheticTask task = makeSyntheticTask(g, 3, 8, 0.1, 84);
    GnnModelConfig config;
    config.featureWidths = {8, 16, 24, 3};
    GnnModel model(g, config);
    TrainerConfig tc;
    tc.epochs = 1;
    tc.tech = TechniqueConfig::combinedLocality();
    Trainer trainer(model, task.features, task.labels, tc);
    trainer.trainEpoch();
    // Layer 1 (16->24) is gathered by layer 2 (24->3), which projects.
    EXPECT_TRUE(model.context(0).hasCompressed);
    EXPECT_FALSE(model.context(1).hasCompressed);
    EXPECT_FALSE(model.context(2).hasCompressed);
    EXPECT_EQ(model.context(2).input, &model.context(1).output);
}

} // namespace
} // namespace graphite
