/**
 * @file
 * Unit tests for the graph substrate: CSR structure, builder semantics,
 * transposition, generators, statistics, edge-list and binary CSR I/O.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>

#include "graph/binary_io.h"
#include "graph/csr_graph.h"
#include "graph/datasets.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"

namespace graphite {
namespace {

CsrGraph
smallGraph()
{
    // 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {0}
    GraphBuilder builder(4);
    builder.addEdge(0, 1);
    builder.addEdge(0, 2);
    builder.addEdge(1, 2);
    builder.addEdge(3, 0);
    return builder.build();
}

TEST(CsrGraph, BasicAccessors)
{
    CsrGraph g = smallGraph();
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(2), 0u);
    auto n0 = g.neighbors(0);
    ASSERT_EQ(n0.size(), 2u);
    EXPECT_EQ(n0[0], 1u);
    EXPECT_EQ(n0[1], 2u);
}

TEST(CsrGraph, RowsSortedAfterBuild)
{
    EXPECT_TRUE(smallGraph().rowsSorted());
}

TEST(CsrGraph, TransposeReversesEdges)
{
    CsrGraph g = smallGraph();
    CsrGraph t = g.transposed();
    EXPECT_EQ(t.numVertices(), g.numVertices());
    EXPECT_EQ(t.numEdges(), g.numEdges());
    // 2 has in-edges from 0 and 1.
    auto n2 = t.neighbors(2);
    std::set<VertexId> in2(n2.begin(), n2.end());
    EXPECT_EQ(in2, (std::set<VertexId>{0, 1}));
    // Double transpose is the identity.
    CsrGraph tt = t.transposed();
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        auto a = g.neighbors(v);
        auto b = tt.neighbors(v);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
}

TEST(GraphBuilder, DeduplicatesAndStripsSelfLoops)
{
    GraphBuilder builder(3);
    builder.addEdge(0, 1);
    builder.addEdge(0, 1); // duplicate
    builder.addEdge(1, 1); // self loop
    builder.addEdge(2, 0);
    CsrGraph g = builder.build();
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(1), 0u);
}

TEST(GraphBuilder, UndirectedAddsBothDirections)
{
    GraphBuilder builder(3);
    builder.addUndirectedEdge(0, 2);
    CsrGraph g = builder.build();
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(2), 1u);
    EXPECT_EQ(g.neighbors(0)[0], 2u);
    EXPECT_EQ(g.neighbors(2)[0], 0u);
}

TEST(Generators, RmatProducesRequestedScale)
{
    RmatParams params;
    params.scale = 10;
    params.avgDegree = 8.0;
    CsrGraph g = generateRmat(params);
    EXPECT_EQ(g.numVertices(), 1024u);
    // Dedup removes some edges; expect at least half the target.
    EXPECT_GT(g.numEdges(), 1024u * 4);
    EXPECT_LE(g.numEdges(), 1024u * 8);
}

TEST(Generators, RmatIsDeterministicPerSeed)
{
    RmatParams params;
    params.scale = 8;
    params.avgDegree = 4.0;
    params.seed = 42;
    CsrGraph a = generateRmat(params);
    CsrGraph b = generateRmat(params);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    EXPECT_TRUE(std::equal(a.colIdx().begin(), a.colIdx().end(),
                           b.colIdx().begin()));
}

TEST(Generators, RmatSkewExceedsErdosRenyi)
{
    RmatParams params;
    params.scale = 12;
    params.avgDegree = 16.0;
    params.a = 0.6;
    GraphStats rmat = computeGraphStats(generateRmat(params));
    GraphStats er = computeGraphStats(
        generateErdosRenyi(1 << 12, 16ull << 12));
    // Power-law generator should have far higher degree variance.
    EXPECT_GT(rmat.degreeVariance, 4.0 * er.degreeVariance);
}

TEST(Generators, ErdosRenyiDegreesConcentrate)
{
    CsrGraph g = generateErdosRenyi(2000, 20000);
    GraphStats stats = computeGraphStats(g);
    EXPECT_NEAR(stats.avgDegree, 10.0, 1.0);
    EXPECT_LT(stats.maxDegree, 40u);
}

TEST(Generators, BarabasiAlbertConnectedAndSkewed)
{
    CsrGraph g = generateBarabasiAlbert(1000, 3);
    GraphStats stats = computeGraphStats(g);
    EXPECT_EQ(stats.numVertices, 1000u);
    EXPECT_GE(stats.avgDegree, 3.0);
    // Preferential attachment produces hubs.
    EXPECT_GT(stats.maxDegree, 30u);
    // Every vertex attached to something.
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_GT(g.degree(v), 0u);
}

TEST(Generators, RingHasUniformDegree)
{
    CsrGraph g = generateRing(64);
    for (VertexId v = 0; v < 64; ++v)
        EXPECT_EQ(g.degree(v), 2u);
}

TEST(GraphStats, MatchesHandComputedValues)
{
    CsrGraph g = smallGraph();
    GraphStats stats = computeGraphStats(g);
    EXPECT_EQ(stats.numVertices, 4u);
    EXPECT_EQ(stats.numEdges, 4u);
    EXPECT_DOUBLE_EQ(stats.avgDegree, 1.0);
    EXPECT_EQ(stats.maxDegree, 2u);
    // degrees: 2,1,0,1 -> var = (4+1+0+1)/4 - 1 = 0.5
    EXPECT_DOUBLE_EQ(stats.degreeVariance, 0.5);
}

TEST(EdgeListIo, RoundTripPreservesGraph)
{
    CsrGraph g = generateErdosRenyi(100, 500, false, 3);
    const std::string path = testing::TempDir() + "graphite_io_test.el";
    saveEdgeList(g, path);
    CsrGraph loaded = loadEdgeList(path, g.numVertices());
    ASSERT_EQ(loaded.numVertices(), g.numVertices());
    ASSERT_EQ(loaded.numEdges(), g.numEdges());
    EXPECT_TRUE(std::equal(g.colIdx().begin(), g.colIdx().end(),
                           loaded.colIdx().begin()));
    std::remove(path.c_str());
}

TEST(BinaryIo, CsrRoundTripPreservesGraph)
{
    CsrGraph g = generateRmat({.scale = 10, .avgDegree = 8.0});
    const std::string path = testing::TempDir() + "graphite_io_test.gcsr";
    saveCsr(g, path);
    EXPECT_TRUE(isCsrFile(path));
    CsrGraph loaded = loadCsr(path);
    ASSERT_EQ(loaded.numVertices(), g.numVertices());
    ASSERT_EQ(loaded.numEdges(), g.numEdges());
    EXPECT_TRUE(std::equal(g.rowPtr().begin(), g.rowPtr().end(),
                           loaded.rowPtr().begin()));
    EXPECT_TRUE(std::equal(g.colIdx().begin(), g.colIdx().end(),
                           loaded.colIdx().begin()));
    std::remove(path.c_str());
}

TEST(BinaryIo, RejectsForeignFiles)
{
    const std::string path = testing::TempDir() + "not_a_csr.bin";
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("definitely not CSR", f);
    std::fclose(f);
    EXPECT_FALSE(isCsrFile(path));
    std::remove(path.c_str());
}

/**
 * Write a GCSR file at @p path whose header claims @p numVertices and
 * @p numEdges, followed by the arrays of a real one-edge graph (2
 * vertices: 24 bytes of rowPtr, 4 of colIdx).
 */
void
writeCsrHeader(const std::string &path, std::uint64_t numVertices,
               std::uint64_t numEdges)
{
    const std::uint32_t version = 1;
    const std::uint64_t rowPtr[3] = {0, 1, 1};
    const std::uint32_t colIdx[1] = {1};
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("GCSR", 1, 4, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&numVertices, sizeof(numVertices), 1, f);
    std::fwrite(&numEdges, sizeof(numEdges), 1, f);
    std::fwrite(rowPtr, sizeof(rowPtr), 1, f);
    std::fwrite(colIdx, sizeof(colIdx), 1, f);
    std::fclose(f);
}

// A corrupt header is refused by name before any array is sized from
// it: no bad_alloc, no multi-GiB allocation, no wrap to an empty graph.
TEST(BinaryIoDeathTest, RefusesEdgeCountBeyondTheFile)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = testing::TempDir() + "graphite_edges.gcsr";
    writeCsrHeader(path, 2, std::uint64_t{1} << 40);
    EXPECT_EXIT(loadCsr(path), testing::ExitedWithCode(1),
                "graphite_edges.gcsr' claims 2 vertices and 1099511627776 "
                "edges, which do not fit the 28 bytes after its header");
    std::remove(path.c_str());
}

TEST(BinaryIoDeathTest, RefusesVertexCountBeyondVertexId)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = testing::TempDir() + "graphite_verts.gcsr";
    writeCsrHeader(path, std::uint64_t{1} << 33, 1);
    EXPECT_EXIT(loadCsr(path), testing::ExitedWithCode(1),
                "graphite_verts.gcsr' claims 8589934592 vertices, more "
                "than a 32-bit vertex id can name");
    std::remove(path.c_str());
}

TEST(BinaryIoDeathTest, RefusesVertexCountThatWrapsToEmpty)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = testing::TempDir() + "graphite_wrap.gcsr";
    writeCsrHeader(path, ~std::uint64_t{0}, 0);
    EXPECT_EXIT(loadCsr(path), testing::ExitedWithCode(1),
                "graphite_wrap.gcsr' claims 18446744073709551615 "
                "vertices, more than a 32-bit vertex id can name");
    std::remove(path.c_str());
}

TEST(Datasets, AllFourAnaloguesGenerate)
{
    for (DatasetId id : allDatasets()) {
        Dataset dataset = makeDataset(id, /*scaleShift=*/6);
        const DatasetSpec spec = datasetSpec(id);
        EXPECT_EQ(dataset.name, spec.name);
        EXPECT_EQ(dataset.graph.numVertices(),
                  VertexId{1} << (spec.scaleLog2 - 6));
        EXPECT_EQ(dataset.inputFeatures, spec.inputFeatures);
        GraphStats stats = computeGraphStats(dataset.graph);
        // Average degree within a factor of ~2 of spec after dedup.
        EXPECT_GT(stats.avgDegree, spec.avgDegree * 0.4);
        EXPECT_LT(stats.avgDegree, spec.avgDegree * 2.0);
    }
}

TEST(Datasets, ParseNamesRoundTrip)
{
    for (DatasetId id : allDatasets())
        EXPECT_EQ(parseDatasetName(datasetSpec(id).name), id);
}

TEST(CsrGraphValidate, AcceptsWellFormedArrays)
{
    CsrGraph g = smallGraph();
    EXPECT_EQ(g.validate(), nullptr);
    EXPECT_EQ(CsrGraph::validate(g.rowPtr(), g.colIdx()), nullptr);
    // The empty graph is valid in both representations: default
    // (both arrays empty) and explicit ({0}, {}).
    EXPECT_EQ(CsrGraph().validate(), nullptr);
    const std::vector<EdgeId> rowPtr = {0};
    EXPECT_EQ(CsrGraph::validate(rowPtr, {}), nullptr);
}

TEST(CsrGraphValidate, RejectsCorruptedRowPtr)
{
    CsrGraph g = smallGraph();
    // Start offset shifted: rowPtr no longer begins at 0.
    std::vector<EdgeId> rowPtr(g.rowPtr().begin(), g.rowPtr().end());
    std::vector<VertexId> colIdx(g.colIdx().begin(), g.colIdx().end());
    rowPtr.front() = 1;
    EXPECT_NE(CsrGraph::validate(rowPtr, colIdx), nullptr);

    // Truncated tail: rowPtr.back() disagrees with |E|.
    rowPtr.assign(g.rowPtr().begin(), g.rowPtr().end());
    rowPtr.back() = colIdx.size() + 1;
    EXPECT_NE(CsrGraph::validate(rowPtr, colIdx), nullptr);

    // A bit flip that makes an interior offset run backwards.
    rowPtr.assign(g.rowPtr().begin(), g.rowPtr().end());
    std::swap(rowPtr[1], rowPtr[2]);
    ASSERT_GT(rowPtr[1], rowPtr[2]); // swap actually de-sorted it
    EXPECT_NE(CsrGraph::validate(rowPtr, colIdx), nullptr);

    // Missing the |V|+1 sentinel entirely.
    EXPECT_NE(CsrGraph::validate({}, colIdx), nullptr);
}

TEST(CsrGraphValidate, RejectsOutOfRangeNeighbor)
{
    CsrGraph g = smallGraph();
    std::vector<EdgeId> rowPtr(g.rowPtr().begin(), g.rowPtr().end());
    std::vector<VertexId> colIdx(g.colIdx().begin(), g.colIdx().end());
    colIdx[1] = g.numVertices(); // first id past the valid range
    EXPECT_NE(CsrGraph::validate(rowPtr, colIdx), nullptr);
}

TEST(CsrGraph, EmptyGraphTransposesToEmpty)
{
    CsrGraph g;
    EXPECT_EQ(g.numVertices(), 0u);
    EXPECT_EQ(g.numEdges(), 0u);
    EXPECT_TRUE(g.rowsSorted());
    CsrGraph t = g.transposed();
    EXPECT_EQ(t.numVertices(), 0u);
    EXPECT_EQ(t.numEdges(), 0u);
    EXPECT_EQ(t.validate(), nullptr);
}

TEST(CsrGraph, IsolatedVerticesSurviveTranspose)
{
    // 5 vertices, edges only between 1 and 3; 0, 2, 4 are isolated.
    GraphBuilder builder(5);
    builder.addEdge(1, 3);
    CsrGraph g = builder.build();
    EXPECT_EQ(g.degree(0), 0u);
    EXPECT_EQ(g.degree(2), 0u);
    EXPECT_EQ(g.degree(4), 0u);
    EXPECT_TRUE(g.rowsSorted());
    CsrGraph t = g.transposed();
    EXPECT_EQ(t.numVertices(), 5u);
    EXPECT_EQ(t.degree(3), 1u);
    EXPECT_EQ(t.neighbors(3)[0], 1u);
    EXPECT_EQ(t.degree(0), 0u);
    EXPECT_EQ(t.degree(4), 0u);
    EXPECT_EQ(t.validate(), nullptr);
}

TEST(CsrGraph, SelfLoopsAreTheirOwnTranspose)
{
    // GraphBuilder strips self loops, so build the CSR directly:
    // 0 -> {0, 1}, 1 -> {1}, 2 -> {}.
    CsrGraph g({0, 2, 3, 3}, {0, 1, 1});
    EXPECT_EQ(g.validate(), nullptr);
    EXPECT_TRUE(g.rowsSorted());
    CsrGraph t = g.transposed();
    // Self loops stay in place; 0 -> 1 reverses.
    EXPECT_EQ(t.degree(0), 1u);
    EXPECT_EQ(t.neighbors(0)[0], 0u);
    EXPECT_EQ(t.degree(1), 2u);
    CsrGraph tt = t.transposed();
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        auto a = g.neighbors(v);
        auto b = tt.neighbors(v);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
}

TEST(CsrGraph, DuplicateEdgesKeptInDirectConstruction)
{
    // A multigraph row: 0 -> {1, 1, 1}. degree() is EdgeId-typed so
    // duplicate-heavy rows cannot truncate.
    CsrGraph g({0, 3, 3}, {1, 1, 1});
    EXPECT_EQ(g.validate(), nullptr);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.degree(0), 3u);
    EXPECT_TRUE(g.rowsSorted());
    CsrGraph t = g.transposed();
    EXPECT_EQ(t.degree(1), 3u);
    auto n1 = t.neighbors(1);
    for (VertexId u : n1)
        EXPECT_EQ(u, 0u);
}

TEST(CsrGraph, UnsortedRowDetected)
{
    CsrGraph g({0, 2, 2}, {1, 0});
    EXPECT_EQ(g.validate(), nullptr); // valid CSR, just unsorted
    EXPECT_FALSE(g.rowsSorted());
}

} // namespace
} // namespace graphite
