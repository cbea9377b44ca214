/**
 * @file
 * Tests of neighborhood sampling and mini-batch construction (paper
 * Section 2.1, the Figure 2 workload).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "graph/generators.h"
#include "sampling/neighbor_sampler.h"

namespace graphite {
namespace {

/** sampleMiniBatch into a fresh tree with a fresh scratch. */
SampledTree
sampleBatch(const CsrGraph &g, const std::vector<VertexId> &seeds,
            const std::vector<VertexId> &fanouts, Rng &rng)
{
    SamplerScratch scratch(g.numVertices());
    SampledTree tree;
    sampleMiniBatch(g, seeds, fanouts, rng, scratch, tree);
    return tree;
}

TEST(Sampler, FanoutBoundsSampledDegree)
{
    CsrGraph g = generateBarabasiAlbert(500, 6, 61);
    Rng rng(1);
    std::vector<VertexId> seeds = {0, 1, 2, 3, 4};
    SampledTree batch = sampleBatch(g, seeds, {5, 5}, rng);
    ASSERT_EQ(batch.blocks.size(), 2u);
    for (const FlatBlock &block : batch.blocks) {
        for (std::size_t d = 0; d < block.dstVertices.size(); ++d)
            EXPECT_LE(block.neighbors(d).size(), 5u);
    }
}

TEST(Sampler, LowDegreeVerticesKeepAllNeighbors)
{
    CsrGraph g = generateRing(32); // degree 2 everywhere
    Rng rng(2);
    SampledTree batch = sampleBatch(g, {7}, {10}, rng);
    const FlatBlock &block = batch.blocks[0];
    ASSERT_EQ(block.dstVertices.size(), 1u);
    EXPECT_EQ(block.neighbors(0).size(), 2u);
}

TEST(Sampler, OutermostDstsAreTheSeeds)
{
    CsrGraph g = generateErdosRenyi(200, 2000, false, 62);
    Rng rng(3);
    std::vector<VertexId> seeds = {10, 20, 30};
    SampledTree batch = sampleBatch(g, seeds, {4, 4, 4}, rng);
    EXPECT_EQ(batch.blocks.back().dstVertices, seeds);
}

TEST(Sampler, LayersChainSrcToDst)
{
    CsrGraph g = generateErdosRenyi(300, 4000, false, 63);
    Rng rng(4);
    SampledTree batch = sampleBatch(g, {1, 2}, {3, 3}, rng);
    // Inner layer's destination set == outer layer's source set.
    EXPECT_EQ(batch.blocks[0].dstVertices, batch.blocks[1].srcVertices);
}

TEST(Sampler, LocalIndicesAreConsistent)
{
    CsrGraph g = generateErdosRenyi(100, 1500, false, 64);
    Rng rng(5);
    SampledTree batch = sampleBatch(g, {5, 6, 7}, {4}, rng);
    const FlatBlock &block = batch.blocks[0];
    // One row per destination, and the destinations are the first
    // local sources, so a row index doubles as its own source index.
    ASSERT_EQ(block.rowPtr.size(), block.dstVertices.size() + 1);
    ASSERT_GE(block.srcVertices.size(), block.dstVertices.size());
    for (std::size_t d = 0; d < block.dstVertices.size(); ++d)
        EXPECT_EQ(block.srcVertices[d], block.dstVertices[d]);
    EXPECT_EQ(block.rowPtr.back(), block.colIdx.size());
    // Every sampled edge must point at a valid local source, and the
    // global edge (dst -> src) must exist in the original graph.
    for (std::size_t d = 0; d < block.dstVertices.size(); ++d) {
        const VertexId globalDst = block.dstVertices[d];
        for (VertexId localSrc : block.neighbors(d)) {
            ASSERT_LT(localSrc, block.srcVertices.size());
            const VertexId globalSrc = block.srcVertices[localSrc];
            auto neighbors = g.neighbors(globalDst);
            EXPECT_TRUE(std::find(neighbors.begin(), neighbors.end(),
                                  globalSrc) != neighbors.end());
        }
    }
}

TEST(Sampler, SampledNeighborsAreDistinct)
{
    CsrGraph g = generateBarabasiAlbert(200, 8, 65);
    Rng rng(6);
    SampledTree batch = sampleBatch(g, {0}, {6}, rng);
    const FlatBlock &block = batch.blocks[0];
    std::set<VertexId> seen(block.neighbors(0).begin(),
                            block.neighbors(0).end());
    EXPECT_EQ(seen.size(), block.neighbors(0).size());
}

/**
 * A star: vertex 0 is a hub whose row lists 1..degree in ascending
 * order; every other vertex has no out-edges.
 */
CsrGraph
hubGraph(VertexId degree)
{
    std::vector<EdgeId> rowPtr(degree + 2, degree);
    rowPtr[0] = 0;
    std::vector<VertexId> colIdx(degree);
    for (VertexId j = 0; j < degree; ++j)
        colIdx[j] = j + 1;
    return CsrGraph(std::move(rowPtr), std::move(colIdx));
}

TEST(Sampler, HubInclusionIsUniform)
{
    // Uniform sampling without replacement includes each of a hub's
    // neighbors with probability fanout/degree. Chi-square of the
    // inclusion counts over 2,000 fixed-seed draws against that
    // expectation (100 per neighbor), at the 0.1% critical value of
    // chi-square with degree - 1 = 199 degrees of freedom.
    constexpr VertexId kDegree = 200;
    constexpr VertexId kFanout = 10;
    constexpr int kDraws = 2000;
    const CsrGraph g = hubGraph(kDegree);
    const std::vector<VertexId> fanouts = {kFanout};
    SamplerScratch scratch(g.numVertices());
    SampledTree tree;
    Rng rng(17);
    std::vector<int> included(kDegree + 1, 0);
    for (int draw = 0; draw < kDraws; ++draw) {
        sampleTree(g, 0, fanouts, rng, scratch, tree);
        const FlatBlock &block = tree.blocks[0];
        ASSERT_EQ(block.neighbors(0).size(), kFanout);
        for (const VertexId local : block.neighbors(0))
            ++included[block.srcVertices[local]];
    }
    const double expected =
        static_cast<double>(kDraws) * kFanout / kDegree;
    double chiSquare = 0.0;
    for (VertexId u = 1; u <= kDegree; ++u) {
        const double d = included[u] - expected;
        chiSquare += d * d / expected;
    }
    EXPECT_EQ(included[0], 0) << "the hub must not sample itself";
    EXPECT_LT(chiSquare, 266.4)
        << "neighbor inclusion departs from fanout/degree";
}

TEST(Sampler, SampledPositionsAreDistinctAndAscending)
{
    // Every destination larger than its fan-out lists its sampled
    // neighbors at strictly ascending positions of its row.
    const CsrGraph g = generateBarabasiAlbert(400, 6, 70);
    const std::vector<VertexId> fanouts = {5, 5};
    SamplerScratch scratch(g.numVertices());
    SampledTree tree;
    std::size_t checkedRows = 0;
    for (VertexId seed = 0; seed < 400; seed += 7) {
        Rng rng(requestSeed(seed));
        sampleTree(g, seed, fanouts, rng, scratch, tree);
        for (std::size_t k = 0; k < tree.blocks.size(); ++k) {
            const FlatBlock &block = tree.blocks[k];
            for (std::size_t d = 0; d < block.dstVertices.size(); ++d) {
                const auto row = g.neighbors(block.dstVertices[d]);
                if (row.size() <= fanouts[k])
                    continue;
                ++checkedRows;
                std::vector<std::ptrdiff_t> positions;
                for (const VertexId local : block.neighbors(d)) {
                    const VertexId u = block.srcVertices[local];
                    const auto it = std::find(row.begin(), row.end(), u);
                    ASSERT_NE(it, row.end()) << "not a neighbor";
                    positions.push_back(it - row.begin());
                }
                const bool ascending =
                    std::adjacent_find(positions.begin(), positions.end(),
                                       std::greater_equal<>()) ==
                    positions.end();
                EXPECT_TRUE(ascending)
                    << "positions must be distinct, ascending";
            }
        }
    }
    EXPECT_GT(checkedRows, 50u);
}

TEST(Sampler, GatherBatchFeaturesCopiesRows)
{
    CsrGraph g = generateRing(16);
    DenseMatrix features(16, 32);
    features.fillUniform(-1.0f, 1.0f, 66);
    std::vector<VertexId> vertices = {3, 9, 15};
    DenseMatrix gathered = gatherBatchFeatures(features, vertices);
    ASSERT_EQ(gathered.rows(), 3u);
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        for (std::size_t c = 0; c < 32; ++c)
            EXPECT_EQ(gathered.at(i, c), features.at(vertices[i], c));
    }
}

TEST(Sampler, EpochBatchesPartitionAllVertices)
{
    CsrGraph g = generateErdosRenyi(1000, 5000, false, 67);
    Rng rng(7);
    auto batches = makeEpochBatches(g, 128, rng);
    std::set<VertexId> seen;
    for (const auto &batch : batches) {
        EXPECT_LE(batch.size(), 128u);
        for (VertexId v : batch) {
            EXPECT_TRUE(seen.insert(v).second) << "duplicate " << v;
        }
    }
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(Sampler, SamplingIsSeedDeterministic)
{
    CsrGraph g = generateBarabasiAlbert(300, 5, 68);
    Rng rngA(9);
    Rng rngB(9);
    SampledTree a = sampleBatch(g, {1, 2, 3}, {4, 4}, rngA);
    SampledTree b = sampleBatch(g, {1, 2, 3}, {4, 4}, rngB);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t k = 0; k < a.blocks.size(); ++k) {
        EXPECT_EQ(a.blocks[k].srcVertices, b.blocks[k].srcVertices);
    }
}

TEST(Sampler, TreeIsTheOneSeedMiniBatch)
{
    // One sampler: a request's tree is the mini-batch of its seed, and
    // a scratch reused across batches and trees changes nothing.
    CsrGraph g = generateBarabasiAlbert(300, 5, 69);
    const std::vector<VertexId> fanouts = {3, 4};
    SamplerScratch shared(g.numVertices());
    for (VertexId seed = 0; seed < 300; seed += 37) {
        Rng rngTree(seed + 1);
        SampledTree tree;
        sampleTree(g, seed, fanouts, rngTree, shared, tree);
        Rng rngBatch(seed + 1);
        const SampledTree batch = sampleBatch(g, {seed}, fanouts, rngBatch);
        ASSERT_EQ(tree.blocks.size(), batch.blocks.size());
        for (std::size_t k = 0; k < tree.blocks.size(); ++k) {
            EXPECT_EQ(tree.blocks[k].rowPtr, batch.blocks[k].rowPtr);
            EXPECT_EQ(tree.blocks[k].colIdx, batch.blocks[k].colIdx);
            EXPECT_EQ(tree.blocks[k].srcVertices,
                      batch.blocks[k].srcVertices);
        }
    }
}

TEST(Sampler, RequestSeedReplayReproducesTrees)
{
    // The serving contract: a request's tree is a pure function of its
    // id — Rng(requestSeed(id)) replays the exact tree later, no matter
    // what the scratch sampled in between or which scratch is used.
    CsrGraph g = generateBarabasiAlbert(400, 6, 91);
    const std::vector<VertexId> fanouts = {4, 3};
    SamplerScratch live(g.numVertices());
    SamplerScratch replay(g.numVertices());
    for (std::uint64_t id = 0; id < 16; ++id) {
        const VertexId seed = static_cast<VertexId>((id * 29) % 400);
        Rng rngLive(requestSeed(id));
        SampledTree treeLive;
        sampleTree(g, seed, fanouts, rngLive, live, treeLive);
        // Pollute the live scratch with unrelated work.
        Rng rngNoise(requestSeed(id ^ 0xabcdef));
        SampledTree noise;
        sampleTree(g, 7, fanouts, rngNoise, live, noise);
        Rng rngReplay(requestSeed(id));
        SampledTree treeReplay;
        sampleTree(g, seed, fanouts, rngReplay, replay, treeReplay);
        ASSERT_EQ(treeLive.blocks.size(), treeReplay.blocks.size());
        for (std::size_t k = 0; k < treeLive.blocks.size(); ++k) {
            EXPECT_EQ(treeLive.blocks[k].rowPtr,
                      treeReplay.blocks[k].rowPtr);
            EXPECT_EQ(treeLive.blocks[k].colIdx,
                      treeReplay.blocks[k].colIdx);
            EXPECT_EQ(treeLive.blocks[k].dstVertices,
                      treeReplay.blocks[k].dstVertices);
            EXPECT_EQ(treeLive.blocks[k].srcVertices,
                      treeReplay.blocks[k].srcVertices);
        }
    }
}

TEST(Sampler, LeafDegreeLeavesInnermostHubsUnexpanded)
{
    // The server's hub cut-off: innermost destinations of degree >= T
    // get empty rows; every other row, and every outer block, is
    // sampled as without the cut-off.
    CsrGraph g = generateBarabasiAlbert(600, 6, 71);
    const std::vector<VertexId> fanouts = {5, 4};
    constexpr EdgeId kLeaf = 15;
    SamplerScratch scratch(g.numVertices());
    std::size_t hubRows = 0;
    std::size_t sampledRows = 0;
    for (std::uint64_t id = 0; id < 64; ++id) {
        const auto seed = static_cast<VertexId>((id * 13) % 600);
        Rng rngCut(requestSeed(id));
        SampledTree cut;
        sampleTree(g, seed, fanouts, rngCut, scratch, cut, kLeaf);
        Rng rngFull(requestSeed(id));
        SampledTree full;
        sampleTree(g, seed, fanouts, rngFull, scratch, full);

        // Outer blocks are built first, before any cut-off applies.
        EXPECT_EQ(cut.blocks[1].rowPtr, full.blocks[1].rowPtr);
        EXPECT_EQ(cut.blocks[1].colIdx, full.blocks[1].colIdx);
        EXPECT_EQ(cut.blocks[1].srcVertices, full.blocks[1].srcVertices);
        const FlatBlock &block = cut.blocks[0];
        ASSERT_EQ(block.dstVertices, full.blocks[0].dstVertices);
        for (std::size_t d = 0; d < block.dstVertices.size(); ++d) {
            const VertexId v = block.dstVertices[d];
            const auto row = block.neighbors(d);
            const std::span<const VertexId> adj = g.neighbors(v);
            if (g.degree(v) >= kLeaf) {
                EXPECT_TRUE(row.empty()) << "hub " << v << " was expanded";
                ++hubRows;
                continue;
            }
            ++sampledRows;
            EXPECT_EQ(row.size(),
                      std::min<std::size_t>(adj.size(), fanouts[0]));
            std::set<VertexId> seen;
            for (const VertexId local : row) {
                const VertexId u = block.srcVertices[local];
                EXPECT_NE(std::find(adj.begin(), adj.end(), u), adj.end())
                    << u << " is not a neighbour of " << v;
                EXPECT_TRUE(seen.insert(u).second);
            }
        }
    }
    EXPECT_GT(hubRows, 0u);
    EXPECT_GT(sampledRows, 0u);
}

TEST(Sampler, ZeroLeafDegreeExpandsEveryRow)
{
    // leafDegree 0 is no cut-off: the tree equals the call without one,
    // and the call with a cut-off no vertex reaches.
    RmatParams rmat;
    rmat.scale = 12;
    rmat.avgDegree = 12.0;
    rmat.seed = 73;
    const CsrGraph g = generateRmat(rmat);
    EdgeId maxDegree = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        maxDegree = std::max(maxDegree, g.degree(v));
    const std::vector<VertexId> fanouts = {10, 10};
    SamplerScratch scratch(g.numVertices());
    SampledTree plain;
    SampledTree zero;
    SampledTree unreachable;
    for (std::uint64_t id = 0; id < 1000; ++id) {
        const auto seed = static_cast<VertexId>((id * 2654435761u) %
                                                g.numVertices());
        Rng rngPlain(requestSeed(id));
        sampleTree(g, seed, fanouts, rngPlain, scratch, plain);
        Rng rngZero(requestSeed(id));
        sampleTree(g, seed, fanouts, rngZero, scratch, zero, 0);
        Rng rngUnreachable(requestSeed(id));
        sampleTree(g, seed, fanouts, rngUnreachable, scratch, unreachable,
                   maxDegree + 1);
        for (std::size_t k = 0; k < fanouts.size(); ++k) {
            for (const SampledTree *other : {&zero, &unreachable}) {
                ASSERT_EQ(plain.blocks[k].rowPtr, other->blocks[k].rowPtr);
                ASSERT_EQ(plain.blocks[k].colIdx, other->blocks[k].colIdx);
                ASSERT_EQ(plain.blocks[k].dstVertices,
                          other->blocks[k].dstVertices);
                ASSERT_EQ(plain.blocks[k].srcVertices,
                          other->blocks[k].srcVertices);
            }
        }
    }
}

TEST(Sampler, RequestSeedDecorrelatesAdjacentIds)
{
    // Adjacent request ids must not sample correlated trees: check the
    // seeds differ in many bit positions (splitmix64 avalanche).
    int differingBits = 0;
    const std::uint64_t diff = requestSeed(100) ^ requestSeed(101);
    for (int b = 0; b < 64; ++b)
        differingBits += static_cast<int>((diff >> b) & 1u);
    EXPECT_GE(differingBits, 16);
    EXPECT_EQ(requestSeed(100), requestSeed(100));
}

} // namespace
} // namespace graphite
