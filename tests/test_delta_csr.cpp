/**
 * @file
 * Delta-CSR overlay tests (DESIGN.md §14): addEdge outcomes and the
 * simple-graph invariant, the lock-free read protocol (RowView,
 * forEachDeltaNeighbor) against concurrent writers, compact()'s
 * bitwise equivalence with a from-scratch GraphBuilder build of the
 * same edge set, pool-budget exhaustion and recovery,
 * allocation-free steady-state inserts, and the GraphView parity table:
 * every algorithm templated over GraphView is bitwise equal on a
 * zero-delta overlay and on its base.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/alloc_guard.h"
#include "common/rng.h"
#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "kernels/mean_gather.h"
#include "sampling/neighbor_sampler.h"
#include "serve/hot_vertex_cache.h"

namespace graphite {
namespace {

CsrGraph
smallGraph()
{
    // 0 -> {1, 2}; 1 -> {2}; 2 -> {}; 3 -> {0}.
    GraphBuilder builder(4);
    builder.addEdge(0, 1);
    builder.addEdge(0, 2);
    builder.addEdge(1, 2);
    builder.addEdge(3, 0);
    return builder.build();
}

/** All (src, dst) pairs of @p graph. */
std::vector<std::pair<VertexId, VertexId>>
edgeList(const CsrGraph &graph)
{
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        for (const VertexId u : graph.neighbors(v))
            edges.emplace_back(v, u);
    return edges;
}

TEST(DeltaCsr, AddEdgeOutcomes)
{
    DeltaCsr overlay(smallGraph(), 16);
    EXPECT_EQ(overlay.addEdge(2, 2), DeltaCsr::AddEdge::SelfLoop);
    EXPECT_EQ(overlay.addEdge(0, 1), DeltaCsr::AddEdge::Duplicate)
        << "base edge must be rejected";
    EXPECT_EQ(overlay.addEdge(2, 0), DeltaCsr::AddEdge::Added);
    EXPECT_EQ(overlay.addEdge(2, 0), DeltaCsr::AddEdge::Duplicate)
        << "delta edge must be rejected";
    EXPECT_EQ(overlay.deltaEdges(), 1u);
    EXPECT_EQ(overlay.numEdges(), smallGraph().numEdges() + 1);
    EXPECT_EQ(overlay.degree(2), 1u);
    EXPECT_EQ(overlay.baseDegree(2), 0u);
    EXPECT_EQ(overlay.deltaDegree(2), 1u);
    EXPECT_EQ(overlay.validate(), nullptr);
}

TEST(DeltaCsr, RowViewUnionsBaseAndDeltaInOrder)
{
    DeltaCsr overlay(smallGraph(), 64);
    // Push vertex 0 across multiple segments (kSegmentEdges = 8).
    std::vector<VertexId> inserted;
    DeltaCsr big(generateErdosRenyi(64, 0, false, 1), 64);
    for (VertexId u = 1; u <= 20; ++u) {
        ASSERT_EQ(big.addEdge(0, u), DeltaCsr::AddEdge::Added);
        inserted.push_back(u);
    }
    const DeltaCsr::RowView view = big.neighbors(0);
    ASSERT_EQ(view.size(), inserted.size());
    // Sequential walk (cursor fast path), then random access.
    for (std::size_t i = 0; i < view.size(); ++i)
        EXPECT_EQ(view[i], inserted[i]);
    EXPECT_EQ(view[19], inserted[19]);
    EXPECT_EQ(view[3], inserted[3]);
    EXPECT_EQ(view[12], inserted[12]);

    // A view with base edges prefixes the base row.
    ASSERT_EQ(overlay.addEdge(0, 3), DeltaCsr::AddEdge::Added);
    const DeltaCsr::RowView mixed = overlay.neighbors(0);
    ASSERT_EQ(mixed.size(), 3u);
    EXPECT_EQ(mixed[0], 1u);
    EXPECT_EQ(mixed[1], 2u);
    EXPECT_EQ(mixed[2], 3u);
}

TEST(DeltaCsr, ViewSnapshotsPublishedCount)
{
    DeltaCsr overlay(smallGraph(), 16);
    ASSERT_EQ(overlay.addEdge(2, 0), DeltaCsr::AddEdge::Added);
    const DeltaCsr::RowView before = overlay.neighbors(2);
    ASSERT_EQ(overlay.addEdge(2, 1), DeltaCsr::AddEdge::Added);
    EXPECT_EQ(before.size(), 1u)
        << "a snapshot view must not see later inserts";
    EXPECT_EQ(overlay.neighbors(2).size(), 2u);
}

TEST(DeltaCsr, PoolFullThenCompactMakesRoom)
{
    DeltaCsr overlay(smallGraph(), 2);
    ASSERT_EQ(overlay.addEdge(2, 0), DeltaCsr::AddEdge::Added);
    ASSERT_EQ(overlay.addEdge(2, 1), DeltaCsr::AddEdge::Added);
    EXPECT_EQ(overlay.addEdge(2, 3), DeltaCsr::AddEdge::PoolFull);
    overlay.compact();
    EXPECT_EQ(overlay.deltaEdges(), 0u);
    EXPECT_EQ(overlay.baseDegree(2), 2u) << "compact absorbed the deltas";
    EXPECT_EQ(overlay.addEdge(2, 3), DeltaCsr::AddEdge::Added);
    EXPECT_EQ(overlay.validate(), nullptr);
}

TEST(DeltaCsr, CompactedMatchesFromScratchBuild)
{
    const CsrGraph base = generateBarabasiAlbert(300, 4, 5);
    DeltaCsr overlay(generateBarabasiAlbert(300, 4, 5), 2000);
    GraphBuilder builder(300);
    for (const auto &[src, dst] : edgeList(base))
        builder.addEdge(src, dst);

    Rng rng(99);
    EdgeId added = 0;
    while (added < 1000) {
        const auto src = static_cast<VertexId>(rng.next() % 300);
        const auto dst = static_cast<VertexId>(rng.next() % 300);
        if (overlay.addEdge(src, dst) == DeltaCsr::AddEdge::Added) {
            builder.addEdge(src, dst);
            ++added;
        }
    }
    ASSERT_EQ(overlay.validate(), nullptr);

    const CsrGraph compacted = overlay.compacted();
    const CsrGraph fresh = builder.build();
    ASSERT_EQ(compacted.numVertices(), fresh.numVertices());
    ASSERT_EQ(compacted.numEdges(), fresh.numEdges());
    EXPECT_EQ(0, std::memcmp(compacted.rowPtr().data(),
                             fresh.rowPtr().data(),
                             fresh.rowPtr().size() * sizeof(EdgeId)));
    EXPECT_EQ(0, std::memcmp(compacted.colIdx().data(),
                             fresh.colIdx().data(),
                             fresh.colIdx().size() * sizeof(VertexId)));

    // In-place compact agrees with the pure form and resets the delta.
    overlay.compact();
    EXPECT_EQ(overlay.deltaEdges(), 0u);
    EXPECT_EQ(0, std::memcmp(overlay.base().colIdx().data(),
                             fresh.colIdx().data(),
                             fresh.colIdx().size() * sizeof(VertexId)));
}

TEST(DeltaCsr, ConcurrentReadersSeePublishedPrefix)
{
    DeltaCsr overlay(generateErdosRenyi(256, 0, false, 3), 4096);
    std::atomic<bool> stop{false};
    std::atomic<bool> failed{false};
    std::thread reader([&overlay, &stop, &failed] {
        while (!stop.load(std::memory_order_acquire)) {
            for (VertexId v = 0; v < 8; ++v) {
                // Every published neighbor of v must be v + something
                // the writer actually inserted (dst = v + k + 1).
                EdgeId count = 0;
                overlay.forEachDeltaNeighbor(v, [&](VertexId u) {
                    if (u <= v || u > v + 200)
                        failed.store(true, std::memory_order_relaxed);
                    ++count;
                });
                // The chain walk published `count` edges at its start;
                // the count can only have grown since.
                if (count > overlay.deltaDegree(v))
                    failed.store(true, std::memory_order_relaxed);
            }
        }
    });
    for (VertexId k = 0; k < 200; ++k)
        for (VertexId v = 0; v < 8; ++v)
            ASSERT_EQ(overlay.addEdge(v, v + k + 1),
                      DeltaCsr::AddEdge::Added);
    stop.store(true, std::memory_order_release);
    reader.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(overlay.validate(), nullptr);
}

TEST(DeltaCsr, SteadyStateInsertsAreAllocFree)
{
    if (!ScopedAllocGuard::interpositionActive())
        GTEST_SKIP() << "interposer compiled out (GRAPHITE_CHECKS off)";
    DeltaCsr overlay(generateErdosRenyi(128, 0, false, 4), 4096);
    ScopedAllocGuard guard("delta-csr inserts");
    for (VertexId k = 0; k < 30; ++k)
        for (VertexId v = 0; v < 64; ++v)
            ASSERT_EQ(overlay.addEdge(v, 64 + (v + k) % 64),
                      DeltaCsr::AddEdge::Added);
    EXPECT_EQ(guard.allocations(), 0u)
        << "addEdge must not touch the heap after construction";
}

/** Insert src → (next free dst) until @p count edges are Added. */
std::vector<VertexId>
insertEdges(DeltaCsr &overlay, GraphBuilder &mirror, VertexId src,
            std::size_t count, VertexId firstDst)
{
    std::vector<VertexId> added;
    for (VertexId dst = firstDst; added.size() < count; ++dst) {
        if (overlay.addEdge(src, dst % overlay.numVertices()) ==
            DeltaCsr::AddEdge::Added) {
            mirror.addEdge(src, dst % overlay.numVertices());
            added.push_back(dst % overlay.numVertices());
        }
    }
    return added;
}

TEST(DeltaCsr, InstallCarriesInsertsMadeAfterTheSnapshot)
{
    constexpr VertexId n = 200;
    DeltaCsr overlay(generateBarabasiAlbert(n, 3, 11), 4096);
    GraphBuilder mirror(n);
    for (const auto &[src, dst] : edgeList(overlay.base()))
        mirror.addEdge(src, dst);

    // Before the snapshot: scattered inserts, and a hub chain that
    // stops mid-segment.
    constexpr VertexId kHub = 7;
    constexpr VertexId kFresh = 150;
    Rng rng(61);
    for (int i = 0; i < 300; ++i) {
        const auto src = static_cast<VertexId>(rng.next() % n);
        const auto dst = static_cast<VertexId>(rng.next() % n);
        if (src != kHub && src != kFresh &&
            overlay.addEdge(src, dst) == DeltaCsr::AddEdge::Added)
            mirror.addEdge(src, dst);
    }
    insertEdges(overlay, mirror, kHub, 5, 100);
    ASSERT_EQ(overlay.deltaDegree(kFresh), 0u);
    const CsrGraph snapshot = overlay.compacted();
    static_assert(5 < DeltaCsr::kSegmentEdges);
    ASSERT_EQ(overlay.deltaDegree(kHub), 5u)
        << "the hub's snapshot prefix must end mid-segment";

    // After the snapshot: the hub's chain crosses a segment boundary,
    // a vertex with no snapshot deltas gains some, and a few more land
    // elsewhere. These are the edges the install carries.
    std::vector<std::vector<VertexId>> carried(n);
    carried[kHub] = insertEdges(overlay, mirror, kHub,
                                DeltaCsr::kSegmentEdges + 3, 20);
    carried[kFresh] = insertEdges(overlay, mirror, kFresh, 4, 0);
    for (int i = 0; i < 40; ++i) {
        const auto src = static_cast<VertexId>(rng.next() % n);
        const auto dst = static_cast<VertexId>(rng.next() % n);
        if (src != kHub && src != kFresh &&
            overlay.addEdge(src, dst) == DeltaCsr::AddEdge::Added) {
            mirror.addEdge(src, dst);
            carried[src].push_back(dst);
        }
    }
    std::size_t carriedTotal = 0;
    for (const auto &row : carried)
        carriedTotal += row.size();

    overlay.installCompacted(snapshot);
    ASSERT_EQ(overlay.validate(), nullptr);
    EXPECT_EQ(overlay.deltaEdges(), carriedTotal);
    for (VertexId v = 0; v < n; ++v) {
        std::vector<VertexId> expect(snapshot.neighbors(v).begin(),
                                     snapshot.neighbors(v).end());
        expect.insert(expect.end(), carried[v].begin(), carried[v].end());
        const DeltaCsr::RowView row = overlay.neighbors(v);
        ASSERT_EQ(row.size(), expect.size()) << "vertex " << v;
        for (std::size_t i = 0; i < row.size(); ++i)
            ASSERT_EQ(row[i], expect[i]) << "vertex " << v << " edge " << i;
    }

    // A final compact() merges the carried edges too: bitwise a
    // from-scratch build of every edge ever inserted.
    overlay.compact();
    EXPECT_EQ(overlay.deltaEdges(), 0u);
    const CsrGraph fresh = mirror.build();
    ASSERT_EQ(overlay.base().numEdges(), fresh.numEdges());
    EXPECT_EQ(0, std::memcmp(overlay.base().rowPtr().data(),
                             fresh.rowPtr().data(),
                             fresh.rowPtr().size() * sizeof(EdgeId)));
    EXPECT_EQ(0, std::memcmp(overlay.base().colIdx().data(),
                             fresh.colIdx().data(),
                             fresh.colIdx().size() * sizeof(VertexId)));
}

TEST(DeltaCsr, CompactedUnderAConcurrentWriterIsAPrefixSnapshot)
{
    // The TSan target of the off-lock build: compacted() races a
    // writer. Every snapshot must be a valid CSR (compacted() asserts
    // it) whose rows hold the base row and sit inside the final row.
    constexpr VertexId n = 256;
    DeltaCsr overlay(generateBarabasiAlbert(n, 3, 12), 8192);
    const CsrGraph base = overlay.compacted();
    std::atomic<bool> done{false};
    std::thread writer([&overlay, &done] {
        Rng rng(71);
        for (int i = 0; i < 4000; ++i) {
            // Skewed sources grow some chains across many segments.
            const auto src = static_cast<VertexId>(rng.next() % 32);
            const auto dst = static_cast<VertexId>(rng.next() % n);
            (void)overlay.addEdge(src, dst);
        }
        done.store(true, std::memory_order_release);
    });
    std::vector<CsrGraph> snapshots;
    do {
        snapshots.push_back(overlay.compacted());
    } while (!done.load(std::memory_order_acquire) && snapshots.size() < 64);
    writer.join();
    ASSERT_EQ(overlay.validate(), nullptr);

    const CsrGraph last = overlay.compacted();
    EdgeId previous = base.numEdges();
    for (const CsrGraph &snapshot : snapshots) {
        ASSERT_EQ(snapshot.validate(), nullptr);
        EXPECT_GE(snapshot.numEdges(), previous)
            << "published edges never disappear from a later snapshot";
        previous = snapshot.numEdges();
        for (VertexId v = 0; v < n; ++v) {
            const auto row = snapshot.neighbors(v);
            const auto baseRow = base.neighbors(v);
            const auto lastRow = last.neighbors(v);
            ASSERT_TRUE(std::includes(row.begin(), row.end(),
                                      baseRow.begin(), baseRow.end()))
                << "vertex " << v << " lost a base edge";
            ASSERT_TRUE(std::includes(lastRow.begin(), lastRow.end(),
                                      row.begin(), row.end()))
                << "vertex " << v << " holds an edge never inserted";
        }
    }
}

TEST(DeltaCsr, InstallRejectsASnapshotOfAnotherGraph)
{
    DeltaCsr overlay(smallGraph(), 16);
    ASSERT_EQ(overlay.addEdge(2, 0), DeltaCsr::AddEdge::Added);
    GraphBuilder wider(5);
    wider.addEdge(0, 1);
    EXPECT_DEATH(overlay.installCompacted(wider.build()),
                 "vertex count differs");

    // Vertex 0 has base row {1, 2}; a snapshot row {1} lost an edge.
    GraphBuilder shrunk(4);
    shrunk.addEdge(0, 1);
    shrunk.addEdge(1, 2);
    shrunk.addEdge(3, 0);
    EXPECT_DEATH(overlay.installCompacted(shrunk.build()),
                 "row below its base");

    // A snapshot holding a delta this overlay never published.
    DeltaCsr other(smallGraph(), 16);
    ASSERT_EQ(other.addEdge(2, 1), DeltaCsr::AddEdge::Added);
    ASSERT_EQ(other.addEdge(2, 3), DeltaCsr::AddEdge::Added);
    EXPECT_DEATH(overlay.installCompacted(other.compacted()),
                 "ahead of the overlay");
}

// ------------------------------------------------------------------
// Sampling over delta edges
// ------------------------------------------------------------------

TEST(OverlaySampling, DeltaEdgesParticipateInSampling)
{
    // A vertex whose neighbors are all delta edges still samples a
    // full tree over them.
    DeltaCsr overlay(generateErdosRenyi(64, 0, false, 8), 64);
    for (VertexId u = 1; u <= 12; ++u)
        ASSERT_EQ(overlay.addEdge(0, u), DeltaCsr::AddEdge::Added);
    const std::vector<VertexId> fanouts = {4};
    SamplerScratch scratch(overlay.numVertices());
    SampledTree tree;
    Rng rng(5);
    sampleTree(overlay, 0, fanouts, rng, scratch, tree);
    ASSERT_EQ(tree.blocks.size(), 1u);
    const FlatBlock &block = tree.blocks[0];
    ASSERT_EQ(block.dstVertices.size(), 1u);
    EXPECT_EQ(block.rowPtr[1] - block.rowPtr[0], 4u)
        << "fanout-limited sample over a pure-delta row";
    for (const VertexId col : block.colIdx) {
        const VertexId u = block.srcVertices[col];
        EXPECT_GE(u, 1u);
        EXPECT_LE(u, 12u);
    }

    // A hub with base edges and a delta chain several segments long:
    // every sample is a member of the row at strictly ascending
    // positions (the RowView cursor only walks forward), and delta
    // edges are drawn alongside base edges.
    constexpr VertexId kHub = 1;
    constexpr std::size_t kDeltas = 5 * DeltaCsr::kSegmentEdges + 3;
    static_assert(kDeltas > DeltaCsr::kSegmentEdges);
    std::vector<EdgeId> rowPtr(65, 0);
    std::vector<VertexId> colIdx;
    for (VertexId u = 2; u < 12; ++u)
        colIdx.push_back(u); // kHub's base row: 2..11
    for (VertexId v = kHub + 1; v <= 64; ++v)
        rowPtr[v] = colIdx.size();
    DeltaCsr hub(CsrGraph(std::move(rowPtr), std::move(colIdx)), 64);
    for (VertexId u = 12; u < 12 + kDeltas; ++u)
        ASSERT_EQ(hub.addEdge(kHub, u), DeltaCsr::AddEdge::Added);
    const DeltaCsr::RowView row = hub.neighbors(kHub);
    ASSERT_EQ(row.size(), 10 + kDeltas);
    const std::vector<VertexId> hubFanouts = {6};
    SamplerScratch hubScratch(hub.numVertices());
    std::size_t baseDrawn = 0;
    std::size_t deltaDrawn = 0;
    for (std::uint64_t id = 0; id < 64; ++id) {
        Rng hubRng(requestSeed(id));
        sampleTree(hub, kHub, hubFanouts, hubRng, hubScratch, tree);
        const FlatBlock &hubBlock = tree.blocks[0];
        ASSERT_EQ(hubBlock.neighbors(0).size(), 6u);
        std::vector<std::size_t> positions;
        for (const VertexId local : hubBlock.neighbors(0)) {
            const VertexId u = hubBlock.srcVertices[local];
            std::size_t pos = 0;
            while (pos < row.size() && row[pos] != u)
                ++pos;
            ASSERT_LT(pos, row.size()) << u << " is not in the hub's row";
            positions.push_back(pos);
            ++(pos < hub.baseDegree(kHub) ? baseDrawn : deltaDrawn);
        }
        const bool ascending =
            std::adjacent_find(positions.begin(), positions.end(),
                               std::greater_equal<>()) == positions.end();
        EXPECT_TRUE(ascending) << "positions must be distinct, ascending";
    }
    EXPECT_GT(baseDrawn, 0u);
    EXPECT_GT(deltaDrawn, 0u) << "delta edges must participate";
}

// ------------------------------------------------------------------
// GraphView parity: every algorithm templated over GraphView gives the
// same result on a DeltaCsr as on the CsrGraph holding the same edges
// ------------------------------------------------------------------

/** A result flattened to bytes, so any result type compares bitwise. */
using Fingerprint = std::vector<unsigned char>;

template <typename T>
void
append(Fingerprint &out, const T &value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const auto *bytes = reinterpret_cast<const unsigned char *>(&value);
    out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
void
append(Fingerprint &out, const std::vector<T> &values)
{
    append(out, values.size());
    for (const T &value : values)
        append(out, value);
}

/** One templated algorithm, run on either graph type. */
struct ParityCase
{
    std::string name;
    std::function<Fingerprint(const CsrGraph &)> onBase;
    std::function<Fingerprint(const DeltaCsr &)> onOverlay;
};

/** gtest prints a case by its name. */
void
PrintTo(const ParityCase &parityCase, std::ostream *os)
{
    *os << parityCase.name;
}

template <typename Fn>
ParityCase
parityCase(std::string name, Fn fn)
{
    return {std::move(name), fn, fn};
}

const DenseMatrix &
parityFeatures()
{
    static const DenseMatrix features = [] {
        DenseMatrix m(300, 20);
        m.fillUniform(-1.0f, 1.0f, 33);
        return m;
    }();
    return features;
}

ParityCase
statsCase()
{
    return parityCase("computeGraphStats", [](const auto &g) {
        const GraphStats stats = computeGraphStats(g);
        Fingerprint out;
        append(out, stats.numVertices);
        append(out, stats.numEdges);
        append(out, stats.avgDegree);
        append(out, stats.maxDegree);
        append(out, stats.degreeVariance);
        append(out, stats.adjacencySparsity);
        return out;
    });
}

ParityCase
thresholdCase()
{
    return parityCase("churnFreeDegreeThreshold", [](const auto &g) {
        Fingerprint out;
        for (const std::size_t capacity : {0, 1, 2, 16, 64, 299, 4096})
            append(out, serve::churnFreeDegreeThreshold(g, capacity));
        return out;
    });
}

std::vector<ParityCase>
everyAlgorithm()
{
    return {
        statsCase(),
        thresholdCase(),
        parityCase("localityOrder",
                   [](const auto &g) {
                       Fingerprint out;
                       append(out, localityOrder(g));
                       return out;
                   }),
        parityCase("localityBuckets",
                   [](const auto &g) {
                       Fingerprint out;
                       append(out, localityBuckets(g).bucketStart);
                       return out;
                   }),
        parityCase("sampleTree",
                   [](const auto &g) {
                       const std::vector<VertexId> fanouts = {4, 4};
                       SamplerScratch scratch(g.numVertices());
                       SampledTree tree;
                       Fingerprint out;
                       for (std::uint64_t id = 0; id < 25; ++id) {
                           Rng rng(id * 77 + 1);
                           sampleTree(g, static_cast<VertexId>(id * 11 % 300),
                                      fanouts, rng, scratch, tree);
                           for (const FlatBlock &block : tree.blocks) {
                               append(out, block.rowPtr);
                               append(out, block.colIdx);
                               append(out, block.srcVertices);
                           }
                       }
                       return out;
                   }),
        parityCase("sampleMiniBatch",
                   [](const auto &g) {
                       const std::vector<VertexId> seeds = {3, 150, 7, 299};
                       const std::vector<VertexId> fanouts = {2, 3, 5};
                       SamplerScratch scratch(g.numVertices());
                       SampledTree tree;
                       Rng rng(5);
                       sampleMiniBatch(g, seeds, fanouts, rng, scratch, tree);
                       Fingerprint out;
                       for (const FlatBlock &block : tree.blocks) {
                           append(out, block.rowPtr);
                           append(out, block.colIdx);
                           append(out, block.srcVertices);
                       }
                       return out;
                   }),
        parityCase("fullMeanRow",
                   [](const auto &g) {
                       const DenseMatrix &features = parityFeatures();
                       std::vector<Feature> row(features.cols());
                       Fingerprint out;
                       for (VertexId v = 0; v < g.numVertices(); ++v) {
                           fullMeanRow(g, features, v, row.data());
                           append(out, row);
                       }
                       return out;
                   }),
    };
}

std::string
caseName(const testing::TestParamInfo<ParityCase> &info)
{
    return info.param.name;
}

class ZeroDeltaOverlay : public testing::TestWithParam<ParityCase>
{
};

TEST_P(ZeroDeltaOverlay, MatchesBase)
{
    const CsrGraph base = generateBarabasiAlbert(300, 5, 31);
    DeltaCsr overlay(generateBarabasiAlbert(300, 5, 31), 64);
    EXPECT_EQ(GetParam().onBase(base), GetParam().onOverlay(overlay));
}

INSTANTIATE_TEST_SUITE_P(GraphView, ZeroDeltaOverlay,
                         testing::ValuesIn(everyAlgorithm()), caseName);

class DeltaOverlay : public testing::TestWithParam<ParityCase>
{
};

TEST_P(DeltaOverlay, MatchesCompacted)
{
    // Degree-only algorithms see the same degrees through the overlay
    // as through its compaction (the others depend on neighbor order,
    // which compaction sorts).
    DeltaCsr overlay(generateBarabasiAlbert(300, 5, 31), 512);
    Rng rng(37);
    while (overlay.deltaEdges() < 400) {
        (void)overlay.addEdge(static_cast<VertexId>(rng.next() % 40),
                              static_cast<VertexId>(rng.next() % 300));
    }
    EXPECT_EQ(GetParam().onBase(overlay.compacted()),
              GetParam().onOverlay(overlay));
}

INSTANTIATE_TEST_SUITE_P(GraphView, DeltaOverlay,
                         testing::Values(statsCase(), thresholdCase()),
                         caseName);

} // namespace
} // namespace graphite
