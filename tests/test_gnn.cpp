/**
 * @file
 * Tests of the GNN layer/model: transposed-spec correctness, numerical
 * gradient checks of the full backward pass, technique-equivalence of
 * the forward pass, and training convergence.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

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

static_assert(std::is_same_v<decltype(std::declval<GnnLayer &>().weights()),
                             const DenseMatrix &>,
              "a layer's weights are written only through its mutators");

/** W[r, c] = @p value, through the layer's one parameter mutator. */
void
setWeight(GnnLayer &layer, std::size_t r, std::size_t c, Feature value)
{
    layer.updateParameters(
        [&](DenseMatrix &w, std::span<Feature>) { w.at(r, c) = value; });
}

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
            const Feature orig = model.layer(0).weights().at(r, c);
            setWeight(model.layer(0), r, c, orig + eps);
            const double lossPlus = lossOf();
            setWeight(model.layer(0), r, c, orig - eps);
            const double lossMinus = lossOf();
            setWeight(model.layer(0), r, c, orig);
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
        const Feature orig = model.layer(0).weights().at(r, 1);
        setWeight(model.layer(0), r, 1, orig + eps);
        const double lossPlus = lossOf();
        setWeight(model.layer(0), r, 1, orig - eps);
        const double lossMinus = lossOf();
        setWeight(model.layer(0), r, 1, orig);
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

// A dropout rate outside [0, 1) is a configuration error the model
// refuses by name at construction: not an abort deep in a kernel, and
// not a silent run without dropout (NaN and negative rates).
TEST(GnnModel, RejectsDropoutRateOutsideUnitInterval)
{
    const CsrGraph g = generateErdosRenyi(20, 60, false, 46);
    for (const double rate :
         {1.5, 1.0, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
        GnnModelConfig config;
        config.featureWidths = {6, 4};
        config.dropoutRate = rate;
        EXPECT_EXIT(GnnModel(g, config), testing::ExitedWithCode(1),
                    "dropout rate must be in \\[0, 1\\)")
            << rate;
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
        setWeight(model.layer(0), 0, 0,
                  std::numeric_limits<float>::quiet_NaN());
        TrainerConfig tc;
        tc.checkNumerics = true;
        Trainer trainer(model, task.features, task.labels, tc);
        EXPECT_THROW(trainer.trainEpoch(), std::runtime_error);
    }

    // Off by default: the poisoned run completes (garbage loss, no
    // throw), which is exactly why the opt-in sweep exists.
    {
        GnnModel model(g, config);
        setWeight(model.layer(0), 0, 0,
                  std::numeric_limits<float>::quiet_NaN());
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

enum class Direction { Flat, Locality, Sharded, Unfused };

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
      case Direction::Unfused:
        return "unfused";
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
 * gradient @p dh, under @p tech and direction @p d (Unfused: flat, with
 * fusion off).
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
    } else if (d == Direction::Sharded) {
        tech.shards = 4;
        plan = &sg.plan;
        planT = &sg.planT;
    } else if (d == Direction::Unfused) {
        tech.fusion = false;
    }
    LayerContext ctx;
    layer.forwardTraining(sg.g, sg.spec, x, nullptr, nullptr, ctx, false,
                          false, order, plan, tech);
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
 * at the 10% bound of Bf16GradientParity). Sharding must be bitwise
 * equal to flat; the unfused direction turns fusion off, so the same
 * layer aggregates first against the same oracles. The bf16 layer has
 * no ReLU: bf16's ~0.3% forward error flips the ReLU mask of near-zero
 * outputs, and those flips (which the aggregate-first bf16 path
 * suffers just as much) would swamp the rounding error the gate is
 * meant to bound.
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
    layer.updateParameters([](DenseMatrix &, std::span<Feature> bias) {
        for (std::size_t c = 0; c < bias.size(); ++c)
            bias[c] = 0.05f * static_cast<float>(c) - 0.1f;
    });
    DenseMatrix x(n, fin);
    x.fillUniform(-1.0f, 1.0f, 73);
    DenseMatrix dh(n, fout);
    dh.fillUniform(-1.0f, 1.0f, 74);

    TechniqueConfig tech = TechniqueConfig::withFusion();
    tech.precision = precision;
    ASSERT_TRUE(layer.projectsFirst(tech));
    ASSERT_FALSE(layer.projectsFirst(TechniqueConfig::basic()));

    DenseMatrix agg(n, fin);
    DenseMatrix oracle(n, fout);
    unfusedLayer(sg.g, x, sg.spec,
                 {&layer.weights(), layer.bias(), layer.hasRelu()},
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
                                         Direction::Unfused),
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
    if (direction == Direction::Sharded)
        tech.shards = 4;
    if (direction == Direction::Unfused)
        tech.fusion = false;
    const DenseMatrix chained = model.inference(x, tech);

    const std::span<const VertexId> order = model.localityOrderFor(tech);
    const PartitionPlan *plan = model.partitionPlanFor(tech);
    const bool bf16 = precision == Precision::Bf16;
    DenseMatrix in = x;
    for (std::size_t k = 0; k < model.numLayers(); ++k) {
        const GnnLayer &layer = model.layer(k);
        EXPECT_EQ(layer.projectsFirst(tech),
                  tech.fusion && layer.outFeatures() < layer.inFeatures());
        // Under bf16 the model hands every layer a bf16 copy of its
        // input; a projecting layer reads neither copy.
        Bf16Matrix inBf16(in.rows(), in.cols());
        if (bf16)
            inBf16.fromDense(in);
        DenseMatrix out(g.numVertices(), layer.outFeatures());
        layer.forwardInference(g, model.spec(), in, nullptr,
                               bf16 ? &inBf16 : nullptr, out, nullptr,
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
                          Direction::Sharded, Direction::Unfused)),
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
/** Every stored float of @p a and @p b is bitwise equal. */
void
expectBitwiseEqual(const DenseMatrix &a, const DenseMatrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        ASSERT_EQ(std::memcmp(a.row(r), b.row(r), a.cols() * sizeof(Feature)),
                  0)
            << "row " << r;
    }
}

// The dropout backward is the ReLU backward with the survivor scale (no
// mask is kept): a layer trained with dropout gets bitwise the output
// and gradients of the same layer without it whose output and incoming
// gradient were masked and scaled by hand — aggregating first and
// projecting first, fused and unfused.
TEST(GnnLayer, DropoutBackwardIsMaskThenReluBackward)
{
    const ScheduledGraph sg(GnnKind::Gcn,
                            generateErdosRenyi(300, 2400, false, 51));
    const VertexId n = sg.g.numVertices();
    const DropoutOp dropout = DropoutOp::at(0.5, 52);
    for (const auto &[fIn, fOut] : {std::pair{16, 24}, std::pair{24, 16}}) {
        for (const bool fused : {true, false}) {
            SCOPED_TRACE(testing::Message() << fIn << "->" << fOut
                                            << (fused ? "" : " unfused"));
            GnnLayer layer(fIn, fOut, true);
            layer.initWeights(53);
            TechniqueConfig tech;
            tech.fusion = fused;
            DenseMatrix x(n, fIn);
            x.fillUniform(-1.0f, 1.0f, 54);
            DenseMatrix dh(n, fOut);
            dh.fillUniform(-1.0f, 1.0f, 55);
            DenseMatrix kept(n, fOut);
            kept.fillUniform(1.0f, 1.0f, 0);
            finishRows(kept, {}, false, dropout);

            LayerContext ctx;
            layer.forwardTraining(sg.g, sg.spec, x, nullptr, nullptr, ctx,
                                  false, false, {}, nullptr, tech, dropout);
            DenseMatrix grad = dh;
            DenseMatrix gradIn(n, fIn);
            layer.backward(sg.gt, sg.specT, ctx, grad, &gradIn, {}, nullptr,
                           tech);
            const DenseMatrix weightGrad = layer.weightGrad();
            DenseMatrix biasGrad(1, fOut);
            std::copy(layer.biasGrad().begin(), layer.biasGrad().end(),
                      biasGrad.row(0));

            LayerContext ref;
            layer.forwardTraining(sg.g, sg.spec, x, nullptr, nullptr, ref,
                                  false, false, {}, nullptr, tech);
            DenseMatrix refGrad = dh;
            for (VertexId v = 0; v < n; ++v) {
                for (int c = 0; c < fOut; ++c) {
                    const bool keep = kept.at(v, c) != 0.0f;
                    ref.output.at(v, c) =
                        keep ? ref.output.at(v, c) * dropout.scale : 0.0f;
                    refGrad.at(v, c) =
                        keep ? refGrad.at(v, c) * dropout.scale : 0.0f;
                }
            }
            expectBitwiseEqual(ctx.output, ref.output);
            DenseMatrix refGradIn(n, fIn);
            layer.backward(sg.gt, sg.specT, ref, refGrad, &refGradIn, {},
                           nullptr, tech);
            expectBitwiseEqual(weightGrad, layer.weightGrad());
            DenseMatrix refBiasGrad(1, fOut);
            std::copy(layer.biasGrad().begin(), layer.biasGrad().end(),
                      refBiasGrad.row(0));
            expectBitwiseEqual(biasGrad, refBiasGrad);
            expectBitwiseEqual(gradIn, refGradIn);
        }
    }
}

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
 * Equal and widening widths keep aggregate-first: the fused driver
 * gathers full F_in-wide rows and no projection GEMM runs.
 */
TEST(ProjectedLayerCounters, EqualWidthsAggregateFirst)
{
    const CsrGraph g = generateBarabasiAlbert(300, 4, 80);
    const VertexId n = g.numVertices();
    const std::uint64_t rows = g.numEdges() + n;
    const AggregationSpec spec = gcnSpec(g);
    const TechniqueConfig tech = TechniqueConfig::withFusion();
    const auto gathered = [&](std::size_t fin, std::size_t fout) {
        GnnLayer layer(fin, fout, true);
        layer.initWeights(81);
        EXPECT_FALSE(layer.projectsFirst(tech));
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
    EXPECT_EQ(gathered(24, 24), rows * 32 * sizeof(Feature));
    EXPECT_EQ(gathered(48, 64), rows * 48 * sizeof(Feature));
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

// ---------------------------------------------------------------------
// Layer 0's aggregate a^0 = Agg(X) is gathered once per input key and
// reused by later trainForward calls.
// ---------------------------------------------------------------------

/** What one full-batch step leaves behind, for bitwise comparison. */
struct StepRecord
{
    double loss = 0.0;
    DenseMatrix logits;
    DenseMatrix hidden; // layer 0's output h^0
    DenseMatrix dzTop;  // the clobbered loss gradient
    std::vector<DenseMatrix> weights;
    std::vector<DenseMatrix> weightGrads;
    std::vector<std::vector<Feature>> biases;
    std::vector<std::vector<Feature>> biasGrads;
};

/** One forward, loss, backward and SGD step of @p model on @p x. */
StepRecord
trainStep(GnnModel &model, const DenseMatrix &x,
          const std::vector<std::int32_t> &labels,
          const TechniqueConfig &tech)
{
    StepRecord rec;
    rec.logits = model.trainForward(x, tech);
    rec.hidden = model.context(0).output;
    rec.dzTop = DenseMatrix(rec.logits.rows(), rec.logits.cols());
    rec.loss = softmaxCrossEntropy(rec.logits, labels, rec.dzTop);
    model.trainBackward(rec.dzTop, tech);
    model.sgdStep(0.1f);
    for (std::size_t k = 0; k < model.numLayers(); ++k) {
        const GnnLayer &layer = model.layer(k);
        rec.weights.push_back(layer.weights());
        rec.weightGrads.push_back(layer.weightGrad());
        rec.biases.push_back(layer.bias());
        rec.biasGrads.emplace_back(layer.biasGrad().begin(),
                                   layer.biasGrad().end());
    }
    return rec;
}

void
expectSameStep(const StepRecord &got, const StepRecord &ref)
{
    EXPECT_EQ(got.loss, ref.loss);
    expectBitwiseEqual(got.logits, ref.logits);
    expectBitwiseEqual(got.hidden, ref.hidden);
    expectBitwiseEqual(got.dzTop, ref.dzTop);
    ASSERT_EQ(got.weights.size(), ref.weights.size());
    for (std::size_t k = 0; k < ref.weights.size(); ++k) {
        SCOPED_TRACE(testing::Message() << "layer " << k);
        expectBitwiseEqual(got.weights[k], ref.weights[k]);
        expectBitwiseEqual(got.weightGrads[k], ref.weightGrads[k]);
        EXPECT_EQ(got.biases[k], ref.biases[k]);
        EXPECT_EQ(got.biasGrads[k], ref.biasGrads[k]);
    }
}

/** Reuses of a^0 counted while @p fn runs. */
template <typename Fn>
std::uint64_t
aggReuses(Fn &&fn)
{
    return counterDelta("gnn.input_agg_reuses", std::forward<Fn>(fn));
}

/** (kind, precision, direction, compression, dropout) */
using ReuseParam = std::tuple<GnnKind, Precision, Direction, bool, bool>;

class InputAggregateReuse : public ::testing::TestWithParam<ReuseParam>
{
};

/**
 * Three epochs on one feature matrix (the last two reuse a^0) against a
 * twin model that alternates between two equal copies of it, so every
 * call misses the input key and gathers again: losses, logits, h^0, the
 * top dz, and every layer's W, b, dW and db agree bit for bit. Layer 1
 * aggregates first, so layer 0's compressed and bf16 copies are written
 * (and read) too; layer 2 narrows and projects under fusion.
 */
TEST_P(InputAggregateReuse, MatchesGatheringEveryEpochBitwise)
{
    const auto [kind, precision, direction, compression, dropout] =
        GetParam();
    const CsrGraph g = generateErdosRenyi(300, 2400, false, 131);
    GnnModelConfig config;
    config.kind = kind;
    config.featureWidths = {12, 24, 24, 5};
    config.dropoutRate = dropout ? 0.5 : 0.0;
    GnnModel model(g, config);
    GnnModel twin(g, config);

    DenseMatrix x(g.numVertices(), 12);
    x.fillUniform(-1.0f, 1.0f, 132);
    x.sparsify(0.3, 133);
    const DenseMatrix copy = x;
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 5);

    TechniqueConfig tech;
    tech.fusion = direction != Direction::Unfused;
    tech.locality = direction == Direction::Locality;
    tech.shards = direction == Direction::Sharded ? 4 : 1;
    tech.compression = compression;
    tech.precision = precision;

    for (int epoch = 0; epoch < 3; ++epoch) {
        SCOPED_TRACE(testing::Message() << "epoch " << epoch);
        StepRecord reused;
        StepRecord gathered;
        EXPECT_EQ(aggReuses([&] {
            reused = trainStep(model, x, labels, tech);
        }), epoch > 0 ? 1u : 0u);
        EXPECT_EQ(aggReuses([&] {
            gathered = trainStep(twin, epoch % 2 ? copy : x, labels, tech);
        }), 0u);
        expectSameStep(reused, gathered);
    }
}

std::string
reuseName(const ::testing::TestParamInfo<ReuseParam> &info)
{
    const auto [kind, precision, direction, compression, dropout] =
        info.param;
    return gnnKindName(kind) + "_" + precisionName(precision) + "_" +
           directionName(direction) + (compression ? "_packed" : "_dense") +
           (dropout ? "_drop" : "_nodrop");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InputAggregateReuse,
    ::testing::Combine(::testing::Values(GnnKind::Gcn, GnnKind::Sage,
                                         GnnKind::Gin),
                       ::testing::Values(Precision::Fp32, Precision::Bf16),
                       ::testing::Values(Direction::Flat,
                                         Direction::Locality,
                                         Direction::Sharded,
                                         Direction::Unfused),
                       ::testing::Bool(), ::testing::Bool()),
    reuseName);

/**
 * A model with @p model's current parameters and no history: what a
 * trainForward of @p x must return when it gathers a^0 afresh.
 */
DenseMatrix
freshLogits(const GnnModel &model, const GnnModelConfig &config,
            const DenseMatrix &x, const TechniqueConfig &tech)
{
    GnnModel fresh(model.graph(), config);
    for (std::size_t k = 0; k < model.numLayers(); ++k) {
        const GnnLayer &from = model.layer(k);
        fresh.layer(k).updateParameters(
            [&](DenseMatrix &w, std::span<Feature> b) {
                w = from.weights();
                std::copy(from.bias().begin(), from.bias().end(),
                          b.begin());
            });
    }
    return fresh.trainForward(x, tech);
}

/**
 * A call at bf16, or on another feature matrix, between reused fp32
 * calls changes the key: it gathers again, and so does the fp32 call
 * after it. Every call matches a fresh model bitwise, and only calls
 * that repeat the previous call's key reuse.
 */
TEST(InputAggregateReuse, AnotherSourceOrMatrixGathersAgain)
{
    const CsrGraph g = generateErdosRenyi(200, 1600, false, 141);
    GnnModelConfig config;
    config.featureWidths = {12, 24, 5};
    config.dropoutRate = 0.0;
    GnnModel model(g, config);
    DenseMatrix x(g.numVertices(), 12);
    x.fillUniform(-1.0f, 1.0f, 142);
    DenseMatrix y(g.numVertices(), 12);
    y.fillUniform(-1.0f, 1.0f, 143);
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 5);

    const TechniqueConfig fp32 = TechniqueConfig::withFusion();
    TechniqueConfig bf16 = fp32;
    bf16.precision = Precision::Bf16;
    const struct
    {
        const DenseMatrix *x;
        const TechniqueConfig *tech;
        std::uint64_t reuses;
    } calls[] = {{&x, &fp32, 0},  {&x, &fp32, 1}, {&x, &bf16, 0},
                 {&x, &fp32, 0},  {&y, &fp32, 0}, {&x, &fp32, 0},
                 {&x, &fp32, 1},  {&x, &bf16, 0}, {&x, &bf16, 1}};
    for (std::size_t i = 0; i < std::size(calls); ++i) {
        SCOPED_TRACE(testing::Message() << "call " << i);
        const DenseMatrix &in = *calls[i].x;
        const TechniqueConfig &tech = *calls[i].tech;
        const DenseMatrix expected = freshLogits(model, config, in, tech);
        StepRecord step;
        EXPECT_EQ(aggReuses([&] {
            step = trainStep(model, in, labels, tech);
        }), calls[i].reuses);
        expectBitwiseEqual(step.logits, expected);
    }
}

/**
 * A narrowing layer 0 projects under fusion and aggregates first
 * without it. Switching fusion between calls never reuses: a projecting
 * call drops the record, so the next unfused call gathers again, and
 * every call matches a fresh model bitwise.
 */
TEST(InputAggregateReuse, SwitchingFusionOnANarrowingLayerGathersAgain)
{
    const CsrGraph g = generateErdosRenyi(200, 1600, false, 151);
    GnnModelConfig config;
    config.featureWidths = {24, 12, 5};
    config.dropoutRate = 0.0;
    GnnModel model(g, config);
    DenseMatrix x(g.numVertices(), 24);
    x.fillUniform(-1.0f, 1.0f, 152);
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 5);

    const TechniqueConfig fused = TechniqueConfig::withFusion();
    const TechniqueConfig basic = TechniqueConfig::basic();
    ASSERT_TRUE(model.layer(0).projectsFirst(fused));
    ASSERT_FALSE(model.layer(0).projectsFirst(basic));
    for (const TechniqueConfig *tech :
         {&basic, &fused, &basic, &fused, &fused, &basic}) {
        SCOPED_TRACE(tech->label());
        const DenseMatrix expected = freshLogits(model, config, x, *tech);
        StepRecord step;
        EXPECT_EQ(aggReuses([&] {
            step = trainStep(model, x, labels, *tech);
        }), 0u);
        expectBitwiseEqual(step.logits, expected);
    }
}

/**
 * The counter and the trace pin the reuse: a Trainer gathers a^0 in its
 * first epoch and reuses it in every later one, each reuse under its
 * own span; a layer 0 that projects first (narrowing, fused) never does.
 */
TEST(InputAggregateReuse, TrainerGathersOncePerRun)
{
    const CsrGraph g = generateBarabasiAlbert(300, 4, 161);
    const auto reusesOver = [&](std::vector<std::size_t> widths,
                                const TechniqueConfig &tech) {
        SyntheticTask task = makeSyntheticTask(g, 4, widths.front(), 0.2,
                                               162);
        GnnModelConfig config;
        config.featureWidths = std::move(widths);
        GnnModel model(g, config);
        TrainerConfig tc;
        tc.epochs = 4;
        tc.tech = tech;
        Trainer trainer(model, task.features, task.labels, tc);
        const std::uint64_t reuses = aggReuses([&] { trainer.train(); });

        obs::TraceRecorder &trace = obs::TraceRecorder::global();
        trace.reset();
        trace.setEnabled(true);
        trainer.trainEpoch();
        trace.setEnabled(false);
        std::uint64_t spans = 0;
        for (const obs::TraceEvent &event : trace.collect())
            spans += std::string(event.name) == "layer.update_stored_agg";
        trace.reset();
        EXPECT_EQ(spans, reuses == 0 ? 0u : 1u) << tech.label();
        return reuses;
    };
    EXPECT_EQ(reusesOver({16, 32, 4}, TechniqueConfig::combinedLocality()),
              3u);
    EXPECT_EQ(reusesOver({16, 32, 4}, TechniqueConfig::basic()), 3u);
    EXPECT_EQ(reusesOver({32, 8, 4}, TechniqueConfig::withFusion()), 0u);
    EXPECT_EQ(reusesOver({32, 8, 4}, TechniqueConfig::basic()), 3u);
}

/**
 * Changing the features in place breaks the input-key contract; a
 * GRAPHITE_CHECKS build checks every reused a^0 (and, at bf16, the
 * rounded copy it was gathered from) against the features and refuses
 * the call by name.
 */
TEST(InputAggregateReuseDeathTest, ChecksBuildRefusesFeaturesChangedInPlace)
{
#ifndef GRAPHITE_ENABLE_DCHECKS
    GTEST_SKIP() << "the reuse check is compiled out (GRAPHITE_CHECKS off)";
#endif
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const CsrGraph g = generateErdosRenyi(100, 700, false, 171);
    GnnModelConfig config;
    config.featureWidths = {12, 24, 5};
    for (const Precision precision : {Precision::Fp32, Precision::Bf16}) {
        GnnModel model(g, config);
        DenseMatrix x(g.numVertices(), 12);
        x.fillUniform(-1.0f, 1.0f, 172);
        TechniqueConfig tech = TechniqueConfig::withFusion();
        tech.precision = precision;
        model.trainForward(x, tech);
        x.at(7, 3) += 1.0f;
        EXPECT_EXIT(model.trainForward(x, tech), testing::ExitedWithCode(1),
                    "vertex [0-9]+; .* input-key contract")
            << precisionName(precision);
    }
}

// Inputs that do not fit the model are refused by name when the
// Trainer is built, not deep inside the first epoch's kernels.
struct TrainerInputs
{
    TrainerInputs()
        : g(generateErdosRenyi(50, 300, false, 181)),
          task(makeSyntheticTask(g, 4, 8, 0.2, 182))
    {
        config.featureWidths = {8, 16, 4};
        model = std::make_unique<GnnModel>(g, config);
    }

    CsrGraph g;
    SyntheticTask task;
    GnnModelConfig config;
    std::unique_ptr<GnnModel> model;
};

TEST(TrainerDeathTest, RefusesFeaturesOfAnotherWidth)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    TrainerInputs in;
    DenseMatrix narrow(in.g.numVertices(), 6);
    EXPECT_EXIT(Trainer(*in.model, narrow, in.task.labels, {}),
                testing::ExitedWithCode(1),
                "features are 50 x 6, the model needs 50 vertices x 8");
}

TEST(TrainerDeathTest, RefusesLabelOutsideTheClasses)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    TrainerInputs in;
    for (const std::int32_t bad : {4, -1}) {
        std::vector<std::int32_t> labels = in.task.labels;
        labels[9] = bad;
        EXPECT_EXIT(Trainer(*in.model, in.task.features, labels, {}),
                    testing::ExitedWithCode(1),
                    "label -?[0-9]+ of vertex 9 is outside \\[0, 4\\)")
            << bad;
    }
}

TEST(TrainerDeathTest, RefusesMasksOfAnotherSize)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    TrainerInputs in;
    TrainerConfig train;
    train.trainMask.assign(49, 1);
    EXPECT_EXIT(Trainer(*in.model, in.task.features, in.task.labels, train),
                testing::ExitedWithCode(1),
                "trainMask has 49 entries for 50 vertices");
    TrainerConfig eval;
    eval.evalMask.assign(51, 1);
    EXPECT_EXIT(Trainer(*in.model, in.task.features, in.task.labels, eval),
                testing::ExitedWithCode(1),
                "evalMask has 51 entries for 50 vertices");
}

} // namespace
} // namespace graphite
