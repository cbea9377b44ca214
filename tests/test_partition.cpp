/**
 * @file
 * Tests of the cache-slice partitioner and shard-major execution:
 * PartitionPlan structural invariants (intra + cut edges tile |E|, halo
 * lists = exact cross-shard fan-in, ownership agrees with shardOf),
 * validate()'s corruption detection, bit-parity of shard-major kernels
 * vs the global ones across models x precision x K, gather-byte
 * accounting, the simulated DRAM-traffic win of the shard-major order,
 * and end-to-end training parity.
 */

#include <algorithm>
#include <cstring>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "gnn/gnn_model.h"
#include "gnn/trainer.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/partition/partition_stats.h"
#include "graph/partition/partitioner.h"
#include "kernels/fused_layer.h"
#include "obs/metrics.h"
#include "sim/machine.h"
#include "sim/workloads.h"
#include "tensor/gemm_plan.h"

namespace graphite {
namespace {

CsrGraph
makeTestGraph(int which)
{
    switch (which) {
      case 0: {
        RmatParams params;
        params.scale = 9;
        params.avgDegree = 8.0;
        return generateRmat(params);
      }
      case 1: {
        CommunityParams params;
        params.numVertices = 512;
        params.communitySize = 64;
        return generateCommunityGraph(params);
      }
      case 2:
        return generateRing(256, 2);
      default:
        return generateBarabasiAlbert(500, 4, 9);
    }
}

PartitionPlan
planFor(const CsrGraph &graph, std::size_t k,
        PartitionStrategy strategy = PartitionStrategy::Greedy)
{
    PartitionConfig config;
    config.numShards = k;
    config.strategy = strategy;
    return makePartitionPlan(graph, config);
}

void
expectBitEqual(const DenseMatrix &a, const DenseMatrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        const Feature *ra = a.row(r);
        const Feature *rb = b.row(r);
        for (std::size_t c = 0; c < a.cols(); ++c)
            ASSERT_EQ(ra[c], rb[c]) << "row " << r << " col " << c;
    }
}

class PlanOnGraphs
    : public testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(PlanOnGraphs, ValidatesForBothStrategies)
{
    const auto [graphIdx, k] = GetParam();
    CsrGraph g = makeTestGraph(graphIdx);
    for (PartitionStrategy strategy :
         {PartitionStrategy::Greedy, PartitionStrategy::Hash}) {
        PartitionPlan plan = planFor(g, k, strategy);
        EXPECT_EQ(plan.validate(), nullptr)
            << "K=" << k << " " << partitionStrategyName(strategy)
            << ": " << plan.validate();
        EXPECT_EQ(plan.numShards(), static_cast<std::size_t>(k));
        // Edge accounting: intra + cut tile |E|.
        EdgeId intra = 0;
        VertexId owned = 0;
        for (const Shard &shard : plan.shards) {
            intra += shard.intraEdges;
            owned += shard.numOwned;
        }
        EXPECT_EQ(owned, g.numVertices());
        EXPECT_EQ(intra + plan.totalCutEdges(), g.numEdges());
        if (k == 1) {
            EXPECT_EQ(plan.totalCutEdges(), 0u);
            EXPECT_EQ(plan.totalHaloVertices(), 0u);
        }
    }
}

TEST_P(PlanOnGraphs, HaloListsAreExactCrossShardFanIn)
{
    const auto [graphIdx, k] = GetParam();
    CsrGraph g = makeTestGraph(graphIdx);
    PartitionPlan plan = planFor(g, k);
    ASSERT_EQ(plan.validate(), nullptr) << plan.validate();
    // Every owned vertex is owned by the shard shardOf names.
    for (std::size_t s = 0; s < plan.numShards(); ++s) {
        for (VertexId v : plan.shards[s].owned())
            EXPECT_EQ(plan.shardOf[v], s) << "vertex " << v;
    }
    // Each shard's halo must be exactly the set of cross-shard
    // neighbors its owned vertices pull from.
    for (std::size_t s = 0; s < plan.numShards(); ++s) {
        const Shard &shard = plan.shards[s];
        std::set<VertexId> expected;
        for (VertexId r = 0; r < shard.numOwned; ++r) {
            for (VertexId u : g.neighbors(shard.vertices[r])) {
                if (plan.shardOf[u] != s)
                    expected.insert(u);
            }
        }
        std::set<VertexId> actual(shard.halo().begin(),
                                  shard.halo().end());
        EXPECT_EQ(actual, expected) << "shard " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(Graphs, PlanOnGraphs,
                         testing::Combine(testing::Values(0, 1, 2, 3),
                                          testing::Values(1, 2, 4, 8)));

TEST(PartitionPlan, EmptyGraphAndMoreShardsThanVertices)
{
    CsrGraph empty({0}, {});
    PartitionPlan plan = planFor(empty, 4);
    EXPECT_EQ(plan.validate(), nullptr) << plan.validate();
    EXPECT_EQ(plan.shardMajorOrder.size(), 0u);

    CsrGraph tiny = generateRing(4);
    PartitionPlan wide = planFor(tiny, 8);
    EXPECT_EQ(wide.validate(), nullptr) << wide.validate();
    VertexId owned = 0;
    for (const Shard &shard : wide.shards)
        owned += shard.numOwned;
    EXPECT_EQ(owned, 4u);
}

TEST(PartitionPlan, ValidateDetectsCorruption)
{
    CsrGraph g = makeTestGraph(0);
    {
        PartitionPlan plan = planFor(g, 4);
        ASSERT_EQ(plan.validate(), nullptr);
        // Move a vertex to another shard in the map only.
        plan.shardOf[plan.shards[0].vertices[0]] = 1;
        EXPECT_NE(plan.validate(), nullptr);
    }
    {
        PartitionPlan plan = planFor(g, 4);
        ASSERT_GT(plan.shards[0].numHalo(), 0u);
        // Drop a halo vertex: a cut edge now reads an unlisted row.
        plan.shards[0].vertices.pop_back();
        EXPECT_NE(plan.validate(), nullptr);
    }
    {
        PartitionPlan plan = planFor(g, 4);
        // Swap two order entries across shard boundaries.
        std::swap(plan.shardMajorOrder.front(),
                  plan.shardMajorOrder.back());
        EXPECT_NE(plan.validate(), nullptr);
    }
    {
        PartitionPlan plan = planFor(g, 4);
        plan.shards[0].intraEdges += 1;
        EXPECT_NE(plan.validate(), nullptr);
    }
}

TEST(PartitionStats, GreedyBeatsHashOnCommunityGraph)
{
    CsrGraph g = makeTestGraph(1);
    PartitionPlan greedy = planFor(g, 4, PartitionStrategy::Greedy);
    PartitionPlan hash = planFor(g, 4, PartitionStrategy::Hash);
    const PartitionStats gs = computePartitionStats(greedy);
    const PartitionStats hs = computePartitionStats(hash);
    EXPECT_LT(gs.cutEdges, hs.cutEdges);
    EXPECT_GE(gs.loadImbalance, 1.0);
    EXPECT_LE(gs.cutEdgeRatio, 1.0);
    EXPECT_FALSE(formatPartitionStats(gs, PartitionStrategy::Greedy)
                     .empty());
}

// ---------------------------------------------------------------------
// Shard-major kernels must be bit-identical to the global ones.
// ---------------------------------------------------------------------

struct ShardedFixture
{
    CsrGraph graph;
    AggregationSpec spec;
    DenseMatrix input;
    DenseMatrix weights;
    std::vector<Feature> bias;

    explicit ShardedFixture(GnnKind kind, std::size_t fIn = 96,
                            std::size_t fOut = 64)
    {
        graph = makeTestGraph(0);
        switch (kind) {
          case GnnKind::Gcn:
            spec = gcnSpec(graph);
            break;
          case GnnKind::Sage:
            spec = sageSpec(graph);
            break;
          case GnnKind::Gin:
            spec = ginSpec(graph);
            break;
        }
        input = DenseMatrix(graph.numVertices(), fIn);
        input.fillUniform(-1.0f, 1.0f, 31);
        weights = DenseMatrix(fIn, fOut);
        weights.fillUniform(-0.2f, 0.2f, 33);
        bias.assign(fOut, 0.01f);
    }

    UpdateOp
    update(Precision precision = Precision::Fp32) const
    {
        return UpdateOp{&weights, bias, true, nullptr, precision};
    }
};

class ShardedParity
    : public testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ShardedParity, AggregationMatchesGlobalBitwise)
{
    const auto [kindIdx, k] = GetParam();
    ShardedFixture fx(static_cast<GnnKind>(kindIdx));
    PartitionPlan plan = planFor(fx.graph, k);
    DenseMatrix global(fx.graph.numVertices(), fx.input.cols());
    DenseMatrix sharded(fx.graph.numVertices(), fx.input.cols());
    aggregate(fx.graph, fx.input, global, fx.spec);
    aggregate(fx.graph, fx.input, sharded, fx.spec, Schedule::sharded(plan));
    expectBitEqual(global, sharded);
}

TEST_P(ShardedParity, FusedForwardMatchesGlobalBitwise)
{
    const auto [kindIdx, k] = GetParam();
    ShardedFixture fx(static_cast<GnnKind>(kindIdx));
    PartitionPlan plan = planFor(fx.graph, k);
    const VertexId n = fx.graph.numVertices();

    DenseMatrix aggG(n, fx.input.cols()), outG(n, fx.weights.cols());
    DenseMatrix aggS(n, fx.input.cols()), outS(n, fx.weights.cols());
    fusedLayer(fx.graph, fx.input, fx.spec, fx.update(), outG, {&aggG});
    fusedLayer(fx.graph, fx.input, fx.spec, fx.update(), outS, {&aggS},
               Schedule::sharded(plan));
    expectBitEqual(aggG, aggS);
    expectBitEqual(outG, outS);

    DenseMatrix infG(n, fx.weights.cols()), infS(n, fx.weights.cols());
    fusedLayer(fx.graph, fx.input, fx.spec, fx.update(), infG);
    fusedLayer(fx.graph, fx.input, fx.spec, fx.update(), infS, {},
               Schedule::sharded(plan));
    expectBitEqual(infG, infS);
}

TEST_P(ShardedParity, FusedBackwardMatchesGlobalBitwise)
{
    const auto [kindIdx, k] = GetParam();
    ShardedFixture fx(static_cast<GnnKind>(kindIdx));
    CsrGraph transposed = fx.graph.transposed();
    AggregationSpec tSpec = transposeSpec(fx.graph, fx.spec, transposed);
    PartitionPlan tPlan = planFor(transposed, k);

    const VertexId n = fx.graph.numVertices();
    DenseMatrix dz(n, fx.weights.cols());
    dz.fillUniform(-0.5f, 0.5f, 77);
    GemmPlan weightsNT;
    weightsNT.pack(GemmMode::NT, fx.weights, Precision::Fp32);
    DenseMatrix gradG(n, fx.input.cols()), gradS(n, fx.input.cols());
    fusedLayerBackward(transposed, dz, tSpec, weightsNT, gradG);
    fusedLayerBackward(transposed, dz, tSpec, weightsNT, gradS,
                       Schedule::sharded(tPlan));
    expectBitEqual(gradG, gradS);
}

TEST_P(ShardedParity, Bf16VariantsMatchGlobalBf16Bitwise)
{
    const auto [kindIdx, k] = GetParam();
    ShardedFixture fx(static_cast<GnnKind>(kindIdx));
    PartitionPlan plan = planFor(fx.graph, k);
    const VertexId n = fx.graph.numVertices();
    Bf16Matrix inBf16(n, fx.input.cols());
    inBf16.fromDense(fx.input);

    DenseMatrix aggG(n, fx.input.cols()), aggS(n, fx.input.cols());
    aggregate(fx.graph, inBf16, aggG, fx.spec);
    aggregate(fx.graph, inBf16, aggS, fx.spec, Schedule::sharded(plan));
    expectBitEqual(aggG, aggS);

    DenseMatrix fAggG(n, fx.input.cols()), fOutG(n, fx.weights.cols());
    DenseMatrix fAggS(n, fx.input.cols()), fOutS(n, fx.weights.cols());
    const UpdateOp update = fx.update(Precision::Bf16);
    fusedLayer(fx.graph, inBf16, fx.spec, update, fOutG, {&fAggG});
    fusedLayer(fx.graph, inBf16, fx.spec, update, fOutS, {&fAggS},
               Schedule::sharded(plan));
    expectBitEqual(fAggG, fAggS);
    expectBitEqual(fOutG, fOutS);
}

/** Expect @p a and @p b to hold byte-identical packed rows. */
void
expectPackedEqual(const CompressedMatrix &a, const CompressedMatrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        ASSERT_EQ(a.nnz(r), b.nnz(r)) << "row " << r;
        ASSERT_EQ(0, std::memcmp(a.values(r), b.values(r),
                                 a.nnz(r) * sizeof(Feature)))
            << "row " << r;
        ASSERT_EQ(0, std::memcmp(a.mask(r), b.mask(r),
                                 a.maskWordsPerRow() * sizeof(std::uint16_t)))
            << "row " << r;
    }
}

TEST_P(ShardedParity, CompressedVariantsMatchGlobalCompressedBitwise)
{
    const auto [kindIdx, k] = GetParam();
    ShardedFixture fx(static_cast<GnnKind>(kindIdx));
    fx.input.sparsify(0.5, 35);
    PartitionPlan plan = planFor(fx.graph, k);
    const VertexId n = fx.graph.numVertices();
    CompressedMatrix packed(n, fx.input.cols());
    packed.compressFrom(fx.input);

    DenseMatrix aggG(n, fx.input.cols()), aggS(n, fx.input.cols());
    aggregate(fx.graph, packed, aggG, fx.spec);
    aggregate(fx.graph, packed, aggS, fx.spec, Schedule::sharded(plan));
    expectBitEqual(aggG, aggS);

    // Training, with the write-side compression of h^k.
    DenseMatrix fAggG(n, fx.input.cols()), fOutG(n, fx.weights.cols());
    DenseMatrix fAggS(n, fx.input.cols()), fOutS(n, fx.weights.cols());
    CompressedMatrix packedG(n, fx.weights.cols());
    CompressedMatrix packedS(n, fx.weights.cols());
    fusedLayer(fx.graph, packed, fx.spec, fx.update(), fOutG,
               {&fAggG, &packedG});
    fusedLayer(fx.graph, packed, fx.spec, fx.update(), fOutS,
               {&fAggS, &packedS}, Schedule::sharded(plan));
    expectBitEqual(fAggG, fAggS);
    expectBitEqual(fOutG, fOutS);
    expectPackedEqual(packedG, packedS);

    // Inference.
    DenseMatrix infG(n, fx.weights.cols()), infS(n, fx.weights.cols());
    CompressedMatrix infPackedG(n, fx.weights.cols());
    CompressedMatrix infPackedS(n, fx.weights.cols());
    fusedLayer(fx.graph, packed, fx.spec, fx.update(), infG,
               {.compressed = &infPackedG});
    fusedLayer(fx.graph, packed, fx.spec, fx.update(), infS,
               {.compressed = &infPackedS}, Schedule::sharded(plan));
    expectBitEqual(infG, infS);
    expectPackedEqual(infPackedG, infPackedS);
}

INSTANTIATE_TEST_SUITE_P(ModelsAndShards, ShardedParity,
                         testing::Combine(testing::Values(0, 1, 2),
                                          testing::Values(1, 2, 4, 8)));

// Shard-major aggregation gathers the same rows as flat, one per edge
// plus the self term, and reports them to both byte counters.
TEST(ShardedCounters, GatheredBytesMatchEstimate)
{
    ShardedFixture fx(GnnKind::Gcn);
    PartitionPlan plan = planFor(fx.graph, 4);
    DenseMatrix out(fx.graph.numVertices(), fx.input.cols());

    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    metrics.setEnabled(true);
    metrics.reset();
    aggregate(fx.graph, fx.input, out, fx.spec, Schedule::sharded(plan));
    const std::uint64_t shardBytes =
        metrics.counter("partition.bytes_gathered").value();
    const std::uint64_t aggBytes =
        metrics.counter("agg.bytes_gathered").value();
    metrics.setEnabled(false);

    EXPECT_EQ(shardBytes,
              plan.estimatedGatherBytes(fx.input.rowBytes()));
    EXPECT_EQ(aggBytes, shardBytes);
}

// ---------------------------------------------------------------------
// Locality: the shard-major order must cut simulated DRAM traffic on a
// graph whose feature slice exceeds the (shrunken) LLC.
// ---------------------------------------------------------------------

TEST(ShardMajorSim, ReducesDramLinesVsGlobalOrderBaseline)
{
    // The planted-community generator shuffles vertex ids, so identity
    // is an honest arbitrary-id global-order baseline (small RMAT, by
    // contrast, embeds locality in its ids AND is expander-like — no
    // partition has a small cut there). Hubs give the degree skew of
    // real power-law graphs, and the greedy partitioner's Alg.-3
    // buckets recover whole communities per shard.
    CommunityParams params;
    params.numVertices = 4096;
    params.communitySize = 128;
    params.intraDegree = 16;
    params.interDegree = 2;
    params.hubsPerCommunity = 2;
    CsrGraph g = generateCommunityGraph(params);
    // Feature working set: |V| x 256 floats = 4 MB vs the shrunken
    // ~600 KB LLC, so gather reuse must come from the processing
    // order; each shard's slice (~1 MB owned + halo) streams through.
    PartitionPlan plan = planFor(g, 4);
    ASSERT_EQ(plan.validate(), nullptr) << plan.validate();

    auto run = [&](const ProcessingOrder *order) {
        sim::Machine machine(sim::paperMachine(64));
        sim::LayerWorkload workload;
        workload.graph = &g;
        workload.order = order;
        workload.fIn = 256;
        workload.fOut = 256;
        workload.impl = sim::LayerImpl::Basic;
        workload.doUpdate = false;
        return sim::simulateLayer(machine, workload);
    };
    const sim::RunResult identity = run(nullptr);
    const sim::RunResult sharded = run(&plan.shardMajorOrder);
    EXPECT_LT(sharded.dram.lineTransfers, identity.dram.lineTransfers);
}

// The model's plan cache is append-only: a request with a new
// (shards, strategy) key must not invalidate the plan an earlier
// caller may still be executing against (the concurrent-serving
// contract partitionPlanFor() documents).
TEST(PartitionPlan, ModelPlanCacheKeepsEntriesAcrossKeys)
{
    CsrGraph g = makeTestGraph(1);
    GnnModelConfig config;
    config.featureWidths = {16, 8};
    GnnModel model(g, config);

    TechniqueConfig tech;
    tech.shards = 2;
    const PartitionPlan *two = model.partitionPlanFor(tech);
    ASSERT_NE(two, nullptr);
    EXPECT_EQ(two->numShards(), 2u);

    tech.shards = 3;
    const PartitionPlan *three = model.partitionPlanFor(tech);
    ASSERT_NE(three, nullptr);
    EXPECT_NE(three, two);
    EXPECT_EQ(three->numShards(), 3u);
    // The first entry survived the second fill...
    EXPECT_EQ(two->numShards(), 2u);
    EXPECT_EQ(two->validate(), nullptr);

    // ...and a repeated request returns the same cached object.
    tech.shards = 2;
    EXPECT_EQ(model.partitionPlanFor(tech), two);

    // Strategy is part of the key.
    tech.partition = PartitionStrategy::Hash;
    const PartitionPlan *hash = model.partitionPlanFor(tech);
    ASSERT_NE(hash, nullptr);
    EXPECT_NE(hash, two);
    EXPECT_EQ(model.partitionPlanFor(tech), hash);

    // The transposed cache behaves identically.
    const PartitionPlan *transposed = model.transposedPartitionPlanFor(tech);
    ASSERT_NE(transposed, nullptr);
    EXPECT_EQ(model.transposedPartitionPlanFor(tech), transposed);
    tech.shards = 3;
    tech.partition = PartitionStrategy::Greedy;
    EXPECT_NE(model.transposedPartitionPlanFor(tech), transposed);
    EXPECT_EQ(transposed->numShards(), 2u);
}

// ---------------------------------------------------------------------
// End to end: shard-major training must reproduce flat training
// bit-for-bit, for fused and unfused techniques.
// ---------------------------------------------------------------------

TEST(ShardedTraining, MatchesFlatTrainingBitwise)
{
    CsrGraph g = makeTestGraph(0);
    SyntheticTask task = makeSyntheticTask(g, 8, 32, 0.4, 11);

    auto train = [&](std::size_t shards, bool fusion) {
        GnnModelConfig config;
        config.featureWidths = {32, 32, 8};
        config.dropoutRate = 0.5;
        GnnModel model(g, config);
        TrainerConfig tc;
        tc.epochs = 3;
        tc.learningRate = 0.3f;
        tc.tech.fusion = fusion;
        tc.tech.shards = shards;
        Trainer trainer(model, task.features, task.labels, tc);
        auto history = trainer.train();
        std::vector<double> losses;
        for (const EpochStats &e : history)
            losses.push_back(e.loss);
        std::vector<Feature> weights;
        for (std::size_t k = 0; k < model.numLayers(); ++k) {
            const DenseMatrix &w = model.layer(k).weights();
            for (std::size_t r = 0; r < w.rows(); ++r)
                weights.insert(weights.end(), w.row(r),
                               w.row(r) + w.cols());
        }
        return std::make_pair(losses, weights);
    };

    for (bool fusion : {false, true}) {
        const auto flat = train(0, fusion);
        const auto sharded = train(4, fusion);
        EXPECT_EQ(flat.first, sharded.first) << "fusion=" << fusion;
        EXPECT_EQ(flat.second, sharded.second) << "fusion=" << fusion;
    }
}

} // namespace
} // namespace graphite
