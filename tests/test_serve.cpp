/**
 * @file
 * Serving-layer tests: MPSC request queue semantics (ordering, batch
 * cap, latency budget, close), hot-vertex cache residency/eviction,
 * the determinism contract (served embeddings bitwise-match an offline
 * serveOne replay of the same request id when the cache is off, and
 * with the cache on stay within a bounded deviation of it and
 * bitwise-match the serveOneHubExact replay), the cache's counters and
 * gather-traffic reduction, and the allocation-free steady-state
 * serving loop (fp32 and bf16) under ScopedAllocGuard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_guard.h"
#include "common/rng.h"
#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "sampling/neighbor_sampler.h"
#include "serve/hot_vertex_cache.h"
#include "serve/load_gen.h"
#include "serve/request_queue.h"
#include "serve/server.h"

namespace graphite {
namespace {

using serve::HotVertexCache;
using serve::InferenceRequest;
using serve::InferenceServer;
using serve::RequestQueue;
using serve::ServeConfig;

CsrGraph
testGraph()
{
    return generateBarabasiAlbert(800, 6, 42);
}

/** Two-layer SAGE-style stack over @p featureWidth inputs. */
struct TestModel
{
    explicit TestModel(std::size_t featureWidth)
        : hidden(featureWidth, 24, true), output(24, 8, false)
    {
        hidden.initWeights(11);
        output.initWeights(12);
    }

    std::vector<GnnLayer *> layers() { return {&hidden, &output}; }

    GnnLayer hidden;
    GnnLayer output;
};

InferenceRequest
makeRequest(std::uint64_t id, VertexId vertex)
{
    InferenceRequest req;
    req.id = id;
    req.vertex = vertex;
    req.enqueueNs = serve::monotonicNanos();
    return req;
}

/** Spin until @p server has served at least @p target requests. */
void
waitServed(InferenceServer &server, std::uint64_t target)
{
    while (server.stats().requestsServed < target)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
}

/**
 * Push one request per entry of @p vertices, ids from @p firstId and
 * replies into the rows of @p served with the same index, then wait
 * until the running consumer has served them all.
 */
void
serveRound(InferenceServer &server, const std::vector<VertexId> &vertices,
           std::uint64_t firstId, DenseMatrix &served)
{
    const std::uint64_t target =
        server.stats().requestsServed + vertices.size();
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        InferenceRequest req = makeRequest(firstId + i, vertices[i]);
        req.out = served.row(firstId + i);
        while (!server.queue().push(req))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    waitServed(server, target);
}

/** Each reply of serveRound(…, firstId, served) equals its hub-exact
 *  replay bit for bit. */
void
expectMatchesHubExact(InferenceServer &server,
                      const std::vector<VertexId> &vertices,
                      std::uint64_t firstId, const DenseMatrix &served)
{
    std::vector<Feature> replay(server.outFeatures());
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        server.serveOneHubExact(firstId + i, vertices[i], replay.data());
        EXPECT_EQ(0, std::memcmp(served.row(firstId + i), replay.data(),
                                 replay.size() * sizeof(Feature)))
            << "request " << firstId + i << " (vertex " << vertices[i]
            << "): cache-on serving differs from the hub-exact replay";
    }
}

// ------------------------------------------------------------------
// RequestQueue
// ------------------------------------------------------------------

TEST(RequestQueue, PopBatchPreservesFifoOrder)
{
    RequestQueue queue(16);
    for (std::uint64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(queue.push(makeRequest(i, static_cast<VertexId>(i))));
    std::vector<InferenceRequest> batch(8);
    const std::size_t n = queue.popBatch(batch.data(), 8, 0);
    ASSERT_EQ(n, 5u);
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(batch[i].id, i);
}

TEST(RequestQueue, PopBatchHonorsMaxBatch)
{
    RequestQueue queue(16);
    for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(queue.push(makeRequest(i, 0)));
    std::vector<InferenceRequest> batch(4);
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 4u);
    EXPECT_EQ(queue.size(), 6u);
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 4u);
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 2u);
}

TEST(RequestQueue, PushFailsWhenFullOrClosed)
{
    RequestQueue queue(2);
    EXPECT_TRUE(queue.push(makeRequest(0, 0)));
    EXPECT_TRUE(queue.push(makeRequest(1, 0)));
    EXPECT_FALSE(queue.push(makeRequest(2, 0))); // full: shed, not block
    queue.close();
    EXPECT_FALSE(queue.push(makeRequest(3, 0)));
    std::vector<InferenceRequest> batch(4);
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 2u);
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 0u); // closed+drained
}

TEST(RequestQueue, WakeReleasesAnEmptyPopWhileOpen)
{
    RequestQueue queue(4);
    std::vector<InferenceRequest> batch(4);
    std::thread waker([&queue] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        queue.wake();
    });
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 0u)
        << "a wake releases a consumer blocked on an empty queue";
    waker.join();
    EXPECT_FALSE(queue.drained()) << "a woken queue is still open";

    // A pending wake does not hide queued requests.
    queue.wake();
    ASSERT_TRUE(queue.push(makeRequest(1, 1)));
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 1u);
    ASSERT_TRUE(queue.push(makeRequest(2, 2)));
    queue.close();
    EXPECT_FALSE(queue.drained()) << "closed, but a request is left";
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 1u);
    EXPECT_TRUE(queue.drained());
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 0u);
}

TEST(RequestQueue, BudgetCoalescesLateArrivals)
{
    RequestQueue queue(16);
    ASSERT_TRUE(queue.push(makeRequest(0, 0)));
    std::thread producer([&queue] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        queue.push(makeRequest(1, 0));
    });
    std::vector<InferenceRequest> batch(4);
    // 200ms budget: the second request lands well inside it, so one
    // batch carries both.
    const std::size_t n =
        queue.popBatch(batch.data(), 4, 200'000'000);
    producer.join();
    EXPECT_EQ(n, 2u);
}

TEST(RequestQueue, ManyProducersOneConsumerLosesNothing)
{
    constexpr std::size_t kProducers = 4;
    constexpr std::uint64_t kPerProducer = 500;
    RequestQueue queue(64);
    std::atomic<std::uint64_t> accepted{0};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&queue, &accepted, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                if (queue.push(makeRequest(p * kPerProducer + i, 0)))
                    accepted.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    std::uint64_t consumed = 0;
    std::thread consumer([&queue, &consumed] {
        std::vector<InferenceRequest> batch(32);
        for (;;) {
            const std::size_t n =
                queue.popBatch(batch.data(), 32, 100'000);
            if (n == 0)
                return;
            consumed += n;
        }
    });
    for (auto &t : producers)
        t.join();
    queue.close();
    consumer.join();
    EXPECT_EQ(consumed, accepted.load());
    EXPECT_GT(consumed, 0u);
}

// ------------------------------------------------------------------
// HotVertexCache
// ------------------------------------------------------------------

TEST(HotVertexCache, PutLookupRoundtrip)
{
    HotVertexCache cache(8, 2, 4);
    EXPECT_TRUE(cache.enabled());
    const Feature row[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    Feature out[4] = {};
    EXPECT_FALSE(cache.lookup(7, out));
    cache.put(7, row);
    ASSERT_TRUE(cache.lookup(7, out));
    EXPECT_EQ(0, std::memcmp(row, out, sizeof(row)));
    // Overwrite in place.
    const Feature row2[4] = {9.0f, 8.0f, 7.0f, 6.0f};
    cache.put(7, row2);
    ASSERT_TRUE(cache.lookup(7, out));
    EXPECT_EQ(0, std::memcmp(row2, out, sizeof(row2)));
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.puts, 2u);
}

TEST(HotVertexCache, ZeroCapacityDisables)
{
    HotVertexCache cache(0, 4, 4);
    EXPECT_FALSE(cache.enabled());
    const Feature row[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    Feature out[4] = {};
    cache.put(3, row);
    EXPECT_FALSE(cache.lookup(3, out));
}

TEST(HotVertexCache, ChurnFreeThresholdBoundsAdmissibleSet)
{
    const CsrGraph graph = testGraph();
    const std::size_t capacity = 64;
    const EdgeId threshold =
        serve::churnFreeDegreeThreshold(graph, capacity);
    EXPECT_GT(threshold, 0u);
    // Rank-pivot guarantees: at most capacity/2 vertices sit strictly
    // above the pivot degree (so the hot set fits with headroom), and
    // at least capacity/2 meet it (so the cache is not starved).
    std::size_t above = 0;
    std::size_t admissible = 0;
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        above += graph.degree(v) > threshold ? 1 : 0;
        admissible += graph.degree(v) >= threshold ? 1 : 0;
    }
    EXPECT_LE(above, capacity / 2);
    EXPECT_GE(admissible, capacity / 2);
    EXPECT_EQ(serve::churnFreeDegreeThreshold(graph, 0), 0u);
}

TEST(HotVertexCache, ClockSecondChanceKeepsReferencedRow)
{
    // One shard, three slots; traced CLOCK-hand sequence where the ref
    // bit is decisive. Fill slots 0..2 with vertices 1..3 (all
    // referenced, hand at 0).
    HotVertexCache cache(3, 1, 1);
    Feature row[1];
    Feature out[1];
    for (VertexId v = 1; v <= 3; ++v) {
        row[0] = static_cast<Feature>(v);
        cache.put(v, row);
    }
    // A full shard forces a sweep: all three bits are stripped, the
    // hand wraps to slot 0 and evicts vertex 1; vertex 4 takes its
    // slot (referenced), hand rests on slot 1.
    row[0] = 4.0f;
    cache.put(4, row);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.lookup(1, out));
    // Re-reference vertex 2 (slot 1, where the hand points). The next
    // eviction must spend that bit and pass over to vertex 3 — the
    // second chance in action: without the lookup, vertex 2 would be
    // the victim.
    ASSERT_TRUE(cache.lookup(2, out));
    row[0] = 5.0f;
    cache.put(5, row);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_TRUE(cache.lookup(2, out));
    EXPECT_FALSE(cache.lookup(3, out));
    ASSERT_TRUE(cache.lookup(5, out));
    EXPECT_EQ(out[0], 5.0f);
    EXPECT_TRUE(cache.lookup(4, out));
}

TEST(HotVertexCache, ChurnKeepsIndexConsistent)
{
    // Far more distinct vertices than slots: every put past capacity
    // evicts (tombstoning the index), which forces the in-place rehash
    // repeatedly. The resident set must stay exactly capacity-sized
    // and every hit must return the row that was put.
    HotVertexCache cache(16, 4, 2);
    Feature row[2];
    Feature out[2];
    for (int round = 0; round < 50; ++round) {
        for (VertexId v = 0; v < 64; ++v) {
            row[0] = static_cast<Feature>(v);
            row[1] = static_cast<Feature>(round);
            cache.put(v, row);
            ASSERT_TRUE(cache.lookup(v, out));
            EXPECT_EQ(out[0], static_cast<Feature>(v));
            EXPECT_EQ(out[1], static_cast<Feature>(round));
        }
    }
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(HotVertexCache, ConcurrentMixedTrafficStaysCoherent)
{
    HotVertexCache cache(64, 8, 4);
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &failed, t] {
            Feature row[4];
            Feature out[4];
            for (int i = 0; i < 2000; ++i) {
                const auto v = static_cast<VertexId>((t * 31 + i) % 96);
                row[0] = row[1] = row[2] = row[3] =
                    static_cast<Feature>(v);
                cache.put(v, row);
                if (cache.lookup(v, out) &&
                    out[0] != static_cast<Feature>(v))
                    failed.store(true, std::memory_order_relaxed);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    // A concurrent put may legitimately replace the row between this
    // thread's put and lookup — but only with that vertex's own value.
    EXPECT_FALSE(failed.load());
}

// ------------------------------------------------------------------
// Sampling determinism (per-request seeding)
// ------------------------------------------------------------------

TEST(ServeSampling, RequestSeedIsDeterministicAndDispersed)
{
    EXPECT_EQ(requestSeed(42), requestSeed(42));
    EXPECT_NE(requestSeed(42), requestSeed(43));
    EXPECT_NE(requestSeed(0), requestSeed(1));
}

TEST(ServeSampling, SampleTreeReplaysBitIdentically)
{
    const CsrGraph graph = testGraph();
    const std::vector<VertexId> fanouts = {4, 4};
    SamplerScratch scratchA(graph.numVertices());
    SamplerScratch scratchB(graph.numVertices());
    SampledTree treeA;
    SampledTree treeB;
    // Replay after unrelated interleaved use of the same scratch.
    for (std::uint64_t id = 0; id < 20; ++id) {
        Rng rngA(requestSeed(id));
        sampleTree(graph, static_cast<VertexId>(id * 7 % 800), fanouts,
                   rngA, scratchA, treeA);
        Rng rngOther(requestSeed(id + 1000));
        SampledTree scratchTree;
        sampleTree(graph, 3, fanouts, rngOther, scratchB, scratchTree);
        Rng rngB(requestSeed(id));
        sampleTree(graph, static_cast<VertexId>(id * 7 % 800), fanouts,
                   rngB, scratchB, treeB);
        ASSERT_EQ(treeA.blocks.size(), treeB.blocks.size());
        for (std::size_t k = 0; k < treeA.blocks.size(); ++k) {
            EXPECT_EQ(treeA.blocks[k].rowPtr, treeB.blocks[k].rowPtr);
            EXPECT_EQ(treeA.blocks[k].colIdx, treeB.blocks[k].colIdx);
            EXPECT_EQ(treeA.blocks[k].dstVertices,
                      treeB.blocks[k].dstVertices);
            EXPECT_EQ(treeA.blocks[k].srcVertices,
                      treeB.blocks[k].srcVertices);
        }
    }
}

TEST(ServeSampling, BlocksKeepDstPrefixInvariant)
{
    const CsrGraph graph = testGraph();
    const std::vector<VertexId> fanouts = {3, 5};
    SamplerScratch scratch(graph.numVertices());
    SampledTree tree;
    Rng rng(requestSeed(9));
    sampleTree(graph, 123, fanouts, rng, scratch, tree);
    ASSERT_EQ(tree.blocks.size(), 2u);
    EXPECT_EQ(tree.blocks[1].dstVertices.size(), 1u);
    EXPECT_EQ(tree.blocks[1].dstVertices[0], 123u);
    for (std::size_t k = 0; k < tree.blocks.size(); ++k) {
        const FlatBlock &block = tree.blocks[k];
        ASSERT_EQ(block.rowPtr.size(), block.dstVertices.size() + 1);
        for (std::size_t i = 0; i < block.dstVertices.size(); ++i)
            EXPECT_EQ(block.srcVertices[i], block.dstVertices[i]);
        for (const VertexId col : block.colIdx)
            EXPECT_LT(col, block.srcVertices.size());
    }
    // Layer 1's sources are layer 0's destinations, in order.
    EXPECT_EQ(tree.blocks[1].srcVertices, tree.blocks[0].dstVertices);
}

// ------------------------------------------------------------------
// InferenceServer
// ------------------------------------------------------------------

TEST(InferenceServer, ServedEmbeddingsBitwiseMatchOfflineReplay)
{
    const CsrGraph graph = testGraph();
    DenseMatrix features(graph.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 7);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 500;
    config.hotCacheCapacity = 0; // determinism mode
    InferenceServer server(graph, features, model.layers(), config);

    constexpr std::size_t kRequests = 64;
    DenseMatrix served(kRequests, server.outFeatures());
    std::thread consumer([&server] { server.run(); });
    for (std::size_t i = 0; i < kRequests; ++i) {
        InferenceRequest req = makeRequest(
            i, static_cast<VertexId>((i * 37) % graph.numVertices()));
        req.out = served.row(i);
        while (!server.queue().push(req))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    server.queue().close();
    consumer.join();

    std::vector<Feature> replay(server.outFeatures());
    for (std::size_t i = 0; i < kRequests; ++i) {
        server.serveOne(i,
                        static_cast<VertexId>((i * 37) %
                                              graph.numVertices()),
                        replay.data());
        EXPECT_EQ(0, std::memcmp(served.row(i), replay.data(),
                                 replay.size() * sizeof(Feature)))
            << "request " << i
            << " served embedding differs from offline replay";
    }
    // run() served kRequests; the replay loop served them once more.
    EXPECT_EQ(server.stats().requestsServed, 2 * kRequests);
}

TEST(InferenceServer, HubThresholdIsResolvedAtConstruction)
{
    // A frozen CSR, and an overlay whose inserts make vertices 0..39
    // new hubs, so its degree ranks differ from its base's.
    const CsrGraph graph = testGraph();
    DeltaCsr overlay(testGraph(), 4096);
    for (VertexId v = 0; v < 40; ++v) {
        for (VertexId u = 400; u < 460; ++u)
            (void)overlay.addEdge(v, u);
    }
    DenseMatrix features(graph.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 9);
    TestModel model(16);
    constexpr std::size_t kCapacity = 64;
    ASSERT_NE(serve::churnFreeDegreeThreshold(graph, kCapacity),
              serve::churnFreeDegreeThreshold(overlay, kCapacity));

    // Derived: the churn-free degree, but never at or below the largest
    // fanout. Fanout 5 sits below the churn-free degree of both graphs;
    // fanout 900 exceeds every degree of both.
    ASSERT_GT(serve::churnFreeDegreeThreshold(graph, kCapacity), 6u);
    for (const VertexId fanout : {VertexId{5}, VertexId{900}}) {
        ServeConfig config;
        config.fanouts = {fanout, 2};
        config.maxBatch = 4;
        config.hotCacheCapacity = kCapacity;
        const auto expected = [&](const auto &g) {
            return std::max(serve::churnFreeDegreeThreshold(g, kCapacity),
                            EdgeId{fanout} + 1);
        };
        const InferenceServer frozen(graph, features, model.layers(),
                                     config);
        EXPECT_EQ(frozen.hotDegreeThreshold(), expected(graph))
            << "fanout " << fanout;
        const InferenceServer dynamic(overlay, features, model.layers(),
                                      config);
        EXPECT_EQ(dynamic.hotDegreeThreshold(), expected(overlay))
            << "fanout " << fanout;
    }

    // With the cache off the gate is 0 unless pinned; a pin passes
    // through as given (the hub-exact oracle mirrors a server this way).
    ServeConfig off;
    off.fanouts = {5, 5};
    off.maxBatch = 4;
    EXPECT_EQ(InferenceServer(graph, features, model.layers(), off)
                  .hotDegreeThreshold(),
              0u);
    off.hotCacheMinDegree = 17;
    EXPECT_EQ(InferenceServer(graph, features, model.layers(), off)
                  .hotDegreeThreshold(),
              17u);
    EXPECT_EQ(InferenceServer(overlay, features, model.layers(), off)
                  .hotDegreeThreshold(),
              17u);
}

TEST(InferenceServer, CachedHubsStayWithinBoundedError)
{
    const CsrGraph graph = testGraph();
    DenseMatrix features(graph.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 8);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.hotCacheCapacity = 64;
    InferenceServer server(graph, features, model.layers(), config);
    EXPECT_GE(server.hotDegreeThreshold(), 6u); // > max fanout

    constexpr std::size_t kRequests = 128;
    DenseMatrix served(kRequests, server.outFeatures());
    std::thread consumer([&server] { server.run(); });
    for (std::size_t i = 0; i < kRequests; ++i) {
        // Hammer a small popular set so hub destinations recur.
        InferenceRequest req = makeRequest(
            i, static_cast<VertexId>((i * 3) % 32));
        req.out = served.row(i);
        while (!server.queue().push(req))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    server.queue().close();
    consumer.join();
    EXPECT_GT(server.stats().cache.hits, 0u);

    // The cached row swaps a sampled mean for the full-neighborhood
    // mean: same estimand, bounded deviation. Outputs must be finite
    // and within a loose relative L2 distance of the exact-replay
    // oracle.
    std::vector<Feature> replay(server.outFeatures());
    for (std::size_t i = 0; i < kRequests; ++i) {
        server.serveOne(i, static_cast<VertexId>((i * 3) % 32),
                        replay.data());
        double diff2 = 0.0;
        double norm2 = 0.0;
        for (std::size_t c = 0; c < replay.size(); ++c) {
            ASSERT_TRUE(std::isfinite(served.row(i)[c]));
            const double d = served.row(i)[c] - replay[c];
            diff2 += d * d;
            norm2 += replay[c] * replay[c];
        }
        EXPECT_LE(std::sqrt(diff2), 0.75 * std::sqrt(norm2) + 1e-3)
            << "request " << i << " deviates implausibly far";
    }
}

TEST(InferenceServer, CacheReducesGatherTraffic)
{
    const CsrGraph graph = testGraph();
    DenseMatrix features(graph.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 9);
    TestModel modelOn(16);
    TestModel modelOff(16);

    // The same 256-request stream, twice through one live server. The
    // first pass starts from a cold cache: each first fill gathers a
    // hub's whole row, which can outweigh the hits of one pass. The
    // second pass is the steady state, and its share of the gathered
    // bytes is what the cache must shrink. Returns the stats after the
    // first pass and after both.
    const auto runWorkload = [](InferenceServer &server) {
        constexpr std::size_t kRequests = 256;
        std::thread consumer([&server] { server.run(); });
        const auto pushStream = [&server] {
            for (std::size_t i = 0; i < kRequests; ++i) {
                InferenceRequest req = makeRequest(
                    i, static_cast<VertexId>((i * 5) % 24));
                while (!server.queue().push(req))
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            }
        };
        pushStream();
        while (server.stats().requestsServed < kRequests)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        const auto first = server.stats();
        pushStream();
        server.queue().close();
        consumer.join();
        return std::pair(first, server.stats());
    };

    ServeConfig on;
    on.fanouts = {5, 5};
    on.hotCacheCapacity = 128;
    ServeConfig off = on;
    off.hotCacheCapacity = 0;
    InferenceServer serverOn(graph, features, modelOn.layers(), on);
    InferenceServer serverOff(graph, features, modelOff.layers(), off);
    const auto [firstOn, bothOn] = runWorkload(serverOn);
    const auto [firstOff, bothOff] = runWorkload(serverOff);
    EXPECT_EQ(firstOn.requestsServed, firstOff.requestsServed);
    EXPECT_GT(firstOn.cache.hits, 0u);
    EXPECT_EQ(bothOn.requestsServed, bothOff.requestsServed);
    EXPECT_LT(bothOn.bytesGathered - firstOn.bytesGathered,
              bothOff.bytesGathered - firstOff.bytesGathered)
        << "hub caching must shrink steady-state gather traffic";
}

/**
 * Two rounds of a hub-heavy stream through a cache-on server over
 * @p layers: the second round must hit the cache, and every reply of
 * both rounds must equal serveOneHubExact bit for bit.
 */
void
expectPostUpdateCacheMatchesReplay(std::vector<GnnLayer *> layers,
                                   std::vector<VertexId> fanouts,
                                   Precision precision)
{
    const CsrGraph graph = testGraph();
    DenseMatrix features(graph.numVertices(), layers.front()->inFeatures());
    features.fillUniform(0.0f, 1.0f, 21);
    ServeConfig config;
    config.fanouts = std::move(fanouts);
    config.maxBatch = 16;
    config.latencyBudgetUs = 500;
    config.hotCacheCapacity = 64;
    config.precision = precision;
    InferenceServer server(graph, features, std::move(layers), config);

    std::vector<VertexId> vertices(48);
    for (std::size_t i = 0; i < vertices.size(); ++i)
        vertices[i] = static_cast<VertexId>((i * 3) % 48);
    DenseMatrix served(2 * vertices.size(), server.outFeatures());
    std::thread consumer([&server] { server.run(); });
    serveRound(server, vertices, 0, served);
    const std::uint64_t warmHits = server.stats().cache.hits;
    serveRound(server, vertices, vertices.size(), served);
    server.queue().close();
    consumer.join();
    EXPECT_GT(server.stats().cache.hits, warmHits)
        << "the second round must be served from cached hub rows";
    expectMatchesHubExact(server, vertices, 0, served);
    expectMatchesHubExact(server, vertices, vertices.size(), served);
}

TEST(InferenceServer, PostUpdateHubCacheMatchesHubExactReplay)
{
    {
        SCOPED_TRACE("48 -> 24 -> 8: layer 0 narrows its input");
        GnnLayer hidden(48, 24, true);
        GnnLayer output(24, 8, false);
        hidden.initWeights(31);
        output.initWeights(32);
        expectPostUpdateCacheMatchesReplay({&hidden, &output}, {5, 5},
                                           Precision::Fp32);
    }
    {
        SCOPED_TRACE("three layers");
        GnnLayer first(16, 24, true);
        GnnLayer second(24, 12, true);
        GnnLayer output(12, 8, false);
        first.initWeights(33);
        second.initWeights(34);
        output.initWeights(35);
        expectPostUpdateCacheMatchesReplay({&first, &second, &output},
                                           {4, 3, 3}, Precision::Fp32);
    }
    {
        SCOPED_TRACE("one layer: a hub seed's reply is its cached row");
        GnnLayer only(16, 8, true);
        only.initWeights(38);
        expectPostUpdateCacheMatchesReplay({&only}, {5}, Precision::Fp32);
    }
    {
        SCOPED_TRACE("bf16 update GEMMs");
        GnnLayer hidden(48, 24, true);
        GnnLayer output(24, 8, false);
        hidden.initWeights(36);
        output.initWeights(37);
        expectPostUpdateCacheMatchesReplay({&hidden, &output}, {5, 5},
                                           Precision::Bf16);
    }
}

TEST(InferenceServer, CacheCountersReconcileWithLayer0Rows)
{
    // Every layer-0 destination row is a cache hit, a row shared with
    // an earlier miss of the same hub in its batch, or a GEMM row; the
    // registry's hit/miss counters are the cache's own.
    const CsrGraph graph = testGraph();
    DenseMatrix features(graph.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 22);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 500;
    config.hotCacheCapacity = 64;
    InferenceServer server(graph, features, model.layers(), config);

    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    metrics.setEnabled(true);
    obs::Counter &hits = metrics.counter("serve.cache.hits");
    obs::Counter &misses = metrics.counter("serve.cache.misses");
    obs::Counter &gemmRows = metrics.counter("serve.layer0_gemm_rows");
    obs::Counter &sharedRows = metrics.counter("serve.layer0_shared_rows");
    const std::uint64_t hitsBefore = hits.value();
    const std::uint64_t missesBefore = misses.value();
    const std::uint64_t gemmRowsBefore = gemmRows.value();
    const std::uint64_t sharedRowsBefore = sharedRows.value();
    const serve::ServeStats before = server.stats();

    // Queued before run() starts, so every batch is full: the cold
    // first batch misses popular hubs more than once.
    constexpr std::size_t kRequests = 128;
    std::vector<VertexId> vertices(kRequests);
    DenseMatrix served(kRequests, server.outFeatures());
    for (std::size_t i = 0; i < kRequests; ++i) {
        vertices[i] = static_cast<VertexId>((i * 5) % 40);
        InferenceRequest req = makeRequest(i, vertices[i]);
        req.out = served.row(i);
        ASSERT_TRUE(server.queue().push(req));
    }
    server.queue().close();
    server.run();
    const serve::ServeStats after = server.stats();
    const std::uint64_t dHits = hits.value() - hitsBefore;
    const std::uint64_t dMisses = misses.value() - missesBefore;
    const std::uint64_t dGemmRows = gemmRows.value() - gemmRowsBefore;
    const std::uint64_t dShared = sharedRows.value() - sharedRowsBefore;
    metrics.setEnabled(false);

    // Layer-0 destinations are the layer-1 sources, which the hub
    // cut-off does not touch; count them from the requests' own trees.
    SamplerScratch scratch(graph.numVertices());
    SampledTree tree;
    std::uint64_t layer0Rows = 0;
    for (std::uint64_t id = 0; id < kRequests; ++id) {
        Rng rng(requestSeed(id));
        sampleTree(graph, vertices[id], config.fanouts, rng, scratch, tree,
                   server.hotDegreeThreshold());
        layer0Rows += tree.blocks[0].dstVertices.size();
    }
    EXPECT_GT(dHits, 0u);
    EXPECT_GT(dShared, 0u);
    EXPECT_EQ(dHits + dShared + dGemmRows, layer0Rows);
    EXPECT_EQ(dHits, after.cache.hits - before.cache.hits);
    EXPECT_EQ(dMisses, after.cache.misses - before.cache.misses);
    // A shared row is its first miss's row, bit for bit.
    expectMatchesHubExact(server, vertices, 0, served);
}

/** Allocation-free steady state: warm up, then a full run() drain. */
void
expectAllocFreeServing(Precision precision)
{
    const CsrGraph graph = testGraph();
    DenseMatrix features(graph.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 10);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 50;
    config.hotCacheCapacity = 64;
    config.precision = precision;
    InferenceServer server(graph, features, model.layers(), config);
    obs::MetricsRegistry::global().setEnabled(true);
    server.warmup();

    constexpr std::size_t kRequests = 128;
    DenseMatrix served(kRequests, server.outFeatures());
    for (std::size_t i = 0; i < kRequests; ++i) {
        InferenceRequest req = makeRequest(
            i, static_cast<VertexId>((i * 13) % graph.numVertices()));
        req.out = served.row(i);
        ASSERT_TRUE(server.queue().push(req));
    }
    server.queue().close();
    {
        ScopedAllocGuard guard("serve steady state");
        server.run();
        if (ScopedAllocGuard::interpositionActive()) {
            EXPECT_EQ(guard.allocations(), 0u)
                << "serving loop allocated after warmup";
        }
    }
    obs::MetricsRegistry::global().setEnabled(false);
    EXPECT_GE(server.stats().requestsServed, kRequests);
}

TEST(InferenceServer, SteadyStateServingIsAllocFreeFp32)
{
    expectAllocFreeServing(Precision::Fp32);
}

TEST(InferenceServer, SteadyStateServingIsAllocFreeBf16)
{
    expectAllocFreeServing(Precision::Bf16);
}

// ------------------------------------------------------------------
// Disabled-cache stats (regression: lookup counted misses while
// disabled, so cache-off A/B legs reported a fake 0% hit rate)
// ------------------------------------------------------------------

TEST(HotVertexCache, DisabledLookupTouchesNoStats)
{
    HotVertexCache cache(0, 4, 4);
    Feature out[4] = {};
    for (VertexId v = 0; v < 100; ++v)
        EXPECT_FALSE(cache.lookup(v, out));
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u)
        << "a disabled cache must not report misses";
    EXPECT_EQ(stats.puts, 0u);
    EXPECT_EQ(stats.invalidations, 0u);
}

// ------------------------------------------------------------------
// Invalidation / epoch protocol
// ------------------------------------------------------------------

TEST(HotVertexCache, InvalidateDropsRowAndRejectsStaleFills)
{
    HotVertexCache cache(8, 1, 2);
    const Feature row[2] = {1.0f, 2.0f};
    Feature out[2] = {};
    cache.put(7, row);
    ASSERT_TRUE(cache.lookup(7, out));

    // A fill snapshots the epoch before gathering; an invalidation in
    // between must reject the (stale-adjacency) install.
    const std::uint64_t preInsert = cache.fillEpoch(7);
    EXPECT_TRUE(cache.invalidate(7));
    EXPECT_FALSE(cache.lookup(7, out));
    EXPECT_FALSE(cache.putIfFresh(7, row, preInsert))
        << "a fill gathered before the invalidation must be rejected";
    EXPECT_FALSE(cache.lookup(7, out));

    // A fill gathered after the invalidation installs normally.
    const std::uint64_t postInsert = cache.fillEpoch(7);
    EXPECT_TRUE(cache.putIfFresh(7, row, postInsert));
    ASSERT_TRUE(cache.lookup(7, out));
    EXPECT_EQ(0, std::memcmp(row, out, sizeof(row)));

    // Invalidating a non-resident vertex still bumps the epoch (it
    // must fence in-flight fills of not-yet-resident vertices).
    const std::uint64_t epoch = cache.fillEpoch(1234);
    EXPECT_FALSE(cache.invalidate(1234));
    EXPECT_NE(cache.fillEpoch(1234), epoch);
    EXPECT_GE(cache.stats().invalidations, 2u);
}

// ------------------------------------------------------------------
// rehashShard tombstone purge (tombstones * 4 > table.size())
// ------------------------------------------------------------------

TEST(HotVertexCache, RehashPurgesTombstonesAndKeepsResidents)
{
    // One shard, 8 slots -> table of 16 cells; the purge triggers once
    // tombstones exceed 4. Drive put/invalidate churn far past that
    // and verify the index never loses a resident and probes always
    // terminate (an un-purged table would fill with tombstones and
    // findSlot would spin).
    HotVertexCache cache(8, 1, 2);
    Feature row[2];
    Feature out[2];
    std::vector<VertexId> resident;
    for (int round = 0; round < 200; ++round) {
        // Install a fresh generation of 8 residents.
        resident.clear();
        for (VertexId k = 0; k < 8; ++k) {
            const auto v = static_cast<VertexId>(round * 8 + k);
            row[0] = static_cast<Feature>(v);
            row[1] = static_cast<Feature>(round);
            cache.put(v, row);
            resident.push_back(v);
        }
        // Invalidate half of them (tombstoning the index each time).
        for (std::size_t i = 0; i < resident.size(); i += 2)
            EXPECT_TRUE(cache.invalidate(resident[i]));
        // The surviving half must still hit with intact rows.
        for (std::size_t i = 1; i < resident.size(); i += 2) {
            ASSERT_TRUE(cache.lookup(resident[i], out))
                << "round " << round << ": resident "
                << resident[i] << " lost";
            EXPECT_EQ(out[0], static_cast<Feature>(resident[i]));
            EXPECT_EQ(out[1], static_cast<Feature>(round));
        }
        // And the invalidated half must stay gone.
        for (std::size_t i = 0; i < resident.size(); i += 2)
            EXPECT_FALSE(cache.lookup(resident[i], out));
    }
    // 200 rounds x 4 invalidations churned far past the purge budget
    // of one 16-cell table; survival of the loop proves the purge ran.
    EXPECT_EQ(cache.stats().invalidations, 200u * 4u);
}

TEST(HotVertexCache, ClearDropsEverythingAndBumpsEpochs)
{
    HotVertexCache cache(16, 4, 2);
    Feature row[2] = {1.0f, 2.0f};
    Feature out[2];
    for (VertexId v = 0; v < 16; ++v)
        cache.put(v, row);
    const std::uint64_t epoch = cache.fillEpoch(3);
    cache.clear();
    for (VertexId v = 0; v < 16; ++v)
        EXPECT_FALSE(cache.lookup(v, out));
    EXPECT_NE(cache.fillEpoch(3), epoch);
    EXPECT_FALSE(cache.putIfFresh(3, row, epoch))
        << "fills gathered before clear() must be rejected";
    // The cache stays fully usable after the flush.
    cache.put(3, row);
    EXPECT_TRUE(cache.lookup(3, out));
}

// ------------------------------------------------------------------
// Load-gen percentile convention (regression: q*(n-1) half-up
// rounding disagreed with MetricsRegistry::estimateQuantile)
// ------------------------------------------------------------------

TEST(LoadGen, ExactPercentileUsesNearestRank)
{
    // Nearest rank: the ceil(q*n)-th smallest, clamped to [1, n].
    std::vector<double> v = {40.0, 10.0, 30.0, 20.0};
    EXPECT_EQ(serve::exactPercentile(v, 0.50), 20.0)
        << "rank ceil(0.5*4)=2 -> second smallest (the old half-up "
           "rounding of q*(n-1) picked the third)";
    EXPECT_EQ(serve::exactPercentile(v, 0.25), 10.0);
    EXPECT_EQ(serve::exactPercentile(v, 0.51), 30.0);
    EXPECT_EQ(serve::exactPercentile(v, 0.75), 30.0);
    EXPECT_EQ(serve::exactPercentile(v, 1.0), 40.0);
    EXPECT_EQ(serve::exactPercentile(v, 0.0), 10.0)
        << "rank clamps to 1: q=0 is the smallest sample";
    std::vector<double> empty;
    EXPECT_EQ(serve::exactPercentile(empty, 0.5), 0.0);

    // Rank agreement with estimateQuantile's convention on 1..n (value
    // == its rank, so the selected value IS the selected rank).
    std::vector<double> ranks(100);
    for (std::size_t i = 0; i < ranks.size(); ++i)
        ranks[i] = static_cast<double>(i + 1);
    for (const double q : {0.01, 0.5, 0.9, 0.99, 0.999}) {
        const double exact = q * 100.0;
        double want = std::ceil(exact);
        if (want < 1.0)
            want = 1.0;
        std::vector<double> shuffled = ranks;
        EXPECT_EQ(serve::exactPercentile(shuffled, q), want)
            << "q = " << q;
    }
}

TEST(LoadGen, ExactPercentileAgreesWithHistogramOnDegenerateBuckets)
{
    // All samples equal: the histogram estimate clamps to [min, max]
    // and becomes exact, so the two quantile paths must coincide.
    const std::uint64_t value = 96;
    std::vector<std::uint64_t> buckets(64, 0);
    std::size_t width = 0;
    for (std::uint64_t x = value; x > 0; x >>= 1)
        ++width;
    buckets[width] = 10;
    std::vector<double> samples(10, static_cast<double>(value));
    for (const double q : {0.5, 0.9, 0.99}) {
        EXPECT_EQ(obs::estimateQuantile(buckets, 10, value, value, q),
                  static_cast<double>(value));
        std::vector<double> scratch = samples;
        EXPECT_EQ(serve::exactPercentile(scratch, q),
                  static_cast<double>(value));
    }
}

/** One open-loop run against @p server; the report must be sane. */
void
expectSaneLoadReport(InferenceServer &server)
{
    serve::LoadGenConfig load;
    load.numRequests = 500;
    load.warmupRequests = 100;
    load.offeredQps = 50000.0;
    load.zipfExponent = 0.9;
    const serve::LoadGenReport report =
        serve::runServeLoad(server, load);
    EXPECT_GT(report.qps, 0.0);
    EXPECT_GE(report.p99Us, report.p50Us);
    EXPECT_GE(report.cacheHitRate, 0.0);
    EXPECT_LE(report.cacheHitRate, 1.0);
    EXPECT_GT(report.bytesGathered, 0u);
    EXPECT_EQ(report.accepted + report.dropped, 500u);
}

TEST(InferenceServer, LoadGeneratorReportsSaneNumbers)
{
    const CsrGraph graph = testGraph();
    DenseMatrix features(graph.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 11);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 100;
    config.hotCacheCapacity = 64;
    {
        SCOPED_TRACE("frozen CSR");
        InferenceServer server(graph, features, model.layers(), config);
        expectSaneLoadReport(server);
    }
    {
        SCOPED_TRACE("DeltaCsr overlay");
        DeltaCsr overlay(testGraph(), 1024);
        InferenceServer server(overlay, features, model.layers(), config);
        expectSaneLoadReport(server);
    }
}

// ------------------------------------------------------------------
// Dynamic-graph serving (delta-CSR overlay, DESIGN.md §14)
// ------------------------------------------------------------------

TEST(DynamicServing, CacheOnMatchesHubExactOracleUnderChurn)
{
    // Rounds of edge inserts interleaved with served batches: after
    // every round, each cache-enabled served embedding must match the
    // cache-bypassed hub-exact forward on the same overlay bitwise —
    // the invalidation protocol's acceptance contract.
    DeltaCsr overlay(generateBarabasiAlbert(800, 6, 42), 4096);
    DenseMatrix features(overlay.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 7);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 500;
    config.hotCacheCapacity = 64;
    InferenceServer server(overlay, features, model.layers(), config);

    std::thread consumer([&server] { server.run(); });
    Rng rng(17);
    std::vector<Feature> replay(server.outFeatures());
    DenseMatrix served(16, server.outFeatures());
    std::uint64_t servedSoFar = 0;
    for (int round = 0; round < 6; ++round) {
        // Churn: 40 accepted inserts through the server's update path.
        for (int i = 0; i < 40;) {
            const auto src = static_cast<VertexId>(rng.next() % 800);
            const auto dst = static_cast<VertexId>(rng.next() % 800);
            if (server.insertEdge(src, dst) == DeltaCsr::AddEdge::Added)
                ++i;
        }
        // Serve one batch of hub-heavy requests.
        for (std::uint64_t i = 0; i < 16; ++i) {
            InferenceRequest req = makeRequest(
                round * 16 + i, static_cast<VertexId>((i * 3) % 48));
            req.out = served.row(i);
            while (!server.queue().push(req))
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
        }
        servedSoFar += 16;
        waitServed(server, servedSoFar);
        // Churn is quiesced: replay each request against the
        // cache-bypassed oracle on the same overlay.
        for (std::uint64_t i = 0; i < 16; ++i) {
            server.serveOneHubExact(round * 16 + i,
                                    static_cast<VertexId>((i * 3) % 48),
                                    replay.data());
            EXPECT_EQ(0,
                      std::memcmp(served.row(i), replay.data(),
                                  replay.size() * sizeof(Feature)))
                << "round " << round << " request " << i
                << ": cache-on serving diverged from the hub-exact "
                   "oracle after inserts";
        }
        servedSoFar += 16; // the replays count as served requests
    }
    server.queue().close();
    consumer.join();
    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.edgeInserts, 240u);
    EXPECT_GT(stats.cache.invalidations, 0u)
        << "inserts on cached hubs must invalidate";
    EXPECT_EQ(overlay.validate(), nullptr);
    EXPECT_EQ(overlay.deltaEdges(), 240u);
}

TEST(DynamicServing, PostCompactionMatchesFreshServerBitwise)
{
    const VertexId n = 600;
    DeltaCsr overlay(generateBarabasiAlbert(n, 5, 21), 2048);
    // Mirror every edge (base + inserted) into a from-scratch builder.
    GraphBuilder builder(n);
    for (VertexId v = 0; v < n; ++v)
        for (const VertexId u : overlay.baseNeighbors(v))
            builder.addEdge(v, u);

    DenseMatrix features(n, 16);
    features.fillUniform(0.0f, 1.0f, 8);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.hotCacheCapacity = 64;
    // Pin the admission threshold: the overlay server resolved its
    // auto threshold on pre-insert degrees, a fresh server would
    // resolve on post-insert degrees — pinning makes hub admission
    // identical so the policies compare bitwise.
    config.hotCacheMinDegree = 20;
    InferenceServer server(overlay, features, model.layers(), config);

    Rng rng(29);
    for (int i = 0; i < 700;) {
        const auto src = static_cast<VertexId>(rng.next() % n);
        const auto dst = static_cast<VertexId>(rng.next() % n);
        if (server.insertEdge(src, dst) == DeltaCsr::AddEdge::Added) {
            builder.addEdge(src, dst);
            ++i;
        }
    }
    // Consumer idle -> compactNow is legal.
    server.compactNow();
    EXPECT_EQ(server.stats().compactions, 1u);
    EXPECT_EQ(overlay.deltaEdges(), 0u);

    const CsrGraph fresh = builder.build();
    TestModel freshModel(16);
    InferenceServer freshServer(fresh, features, freshModel.layers(),
                                config);

    std::vector<Feature> a(server.outFeatures());
    std::vector<Feature> b(server.outFeatures());
    for (std::uint64_t id = 0; id < 40; ++id) {
        const auto v = static_cast<VertexId>((id * 13) % n);
        server.serveOne(id, v, a.data());
        freshServer.serveOne(id, v, b.data());
        EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                                 a.size() * sizeof(Feature)))
            << "sampled replay " << id
            << " differs between compacted overlay and fresh build";
        server.serveOneHubExact(id, v, a.data());
        freshServer.serveOneHubExact(id, v, b.data());
        EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                                 a.size() * sizeof(Feature)))
            << "hub-exact replay " << id
            << " differs between compacted overlay and fresh build";
    }
    EXPECT_EQ(0,
              std::memcmp(overlay.base().colIdx().data(),
                          fresh.colIdx().data(),
                          fresh.colIdx().size() * sizeof(VertexId)))
        << "compacted adjacency must equal the from-scratch build";
}

TEST(DynamicServing, ConcurrentChurnWhileServingStaysCoherent)
{
    // The TSan target of the bugfix sweep: producers push requests,
    // an updater inserts edges and requests compactions, the consumer
    // serves — all concurrently. Coherence checks: stats add up, the
    // overlay validates, every served embedding is finite, and served
    // embeddings stay within the sampling estimate's error of a replay
    // over the final graph.
    DeltaCsr overlay(generateBarabasiAlbert(800, 6, 42), 8192);
    DenseMatrix features(overlay.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 10);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 100;
    config.hotCacheCapacity = 64;
    InferenceServer server(overlay, features, model.layers(), config);
    server.warmup();

    constexpr std::size_t kRequests = 512;
    DenseMatrix served(kRequests, server.outFeatures());
    std::thread consumer([&server] { server.run(); });
    constexpr int kInsertsOffered = 1500;
    std::atomic<std::uint64_t> inserted{0};
    std::thread updater([&server, &inserted] {
        Rng rng(31);
        for (int i = 0; i < kInsertsOffered; ++i) {
            const auto src = static_cast<VertexId>(rng.next() % 800);
            const auto dst = static_cast<VertexId>(rng.next() % 800);
            if (server.insertEdge(src, dst) ==
                DeltaCsr::AddEdge::Added)
                inserted.fetch_add(1, std::memory_order_relaxed);
            if (i % 400 == 399)
                server.requestCompaction();
        }
    });
    std::thread oracle([&server] {
        std::vector<Feature> out(server.outFeatures());
        for (std::uint64_t id = 0; id < 200; ++id)
            server.serveOneHubExact(1'000'000 + id,
                                    static_cast<VertexId>(id % 64),
                                    out.data());
    });
    for (std::size_t i = 0; i < kRequests; ++i) {
        InferenceRequest req = makeRequest(
            i, static_cast<VertexId>((i * 7) % 800));
        req.out = served.row(i);
        while (!server.queue().push(req))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    updater.join();
    oracle.join();
    server.queue().close();
    consumer.join();

    const serve::ServeStats stats = server.stats();
    EXPECT_GT(inserted.load(), 0u)
        << "inserts must be accepted while serving, not starved";
    EXPECT_EQ(stats.edgeInserts, inserted.load());
    EXPECT_LE(stats.edgeInserts,
              static_cast<std::uint64_t>(kInsertsOffered));
    EXPECT_GE(stats.requestsServed, kRequests);
    EXPECT_EQ(overlay.validate(), nullptr);
    for (std::size_t i = 0; i < kRequests; ++i)
        for (std::size_t c = 0; c < server.outFeatures(); ++c)
            ASSERT_TRUE(std::isfinite(served.row(i)[c]))
                << "request " << i << " col " << c;
    // Staleness: replay every served request (same id, so same
    // sampling seed) on a cache-off oracle over the final graph, with
    // the server's admission threshold so its hub-exact gating
    // matches. A reply served at time t saw the graph as of t; the
    // oracle sees every insert. Measured means lie in 0.002-0.074
    // (20 Release and 20 TSan repeats); the bound is 3x the largest.
    // Replies scaled by 0.5 score 0.5, and an all-zero reply 1.0.
    const CsrGraph finalGraph = overlay.compacted();
    ServeConfig oracleConfig = config;
    oracleConfig.hotCacheCapacity = 0;
    oracleConfig.hotCacheMinDegree = server.hotDegreeThreshold();
    InferenceServer fresh(finalGraph, features, model.layers(),
                          oracleConfig);
    std::vector<Feature> replay(fresh.outFeatures());
    double meanRel = 0.0;
    double maxRel = 0.0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        fresh.serveOneHubExact(i, static_cast<VertexId>((i * 7) % 800),
                               replay.data());
        double gap2 = 0.0;
        double norm2 = 0.0;
        for (std::size_t c = 0; c < replay.size(); ++c) {
            const double d = static_cast<double>(served.row(i)[c]) -
                             static_cast<double>(replay[c]);
            gap2 += d * d;
            norm2 += static_cast<double>(replay[c]) *
                     static_cast<double>(replay[c]);
        }
        const double rel =
            norm2 > 0.0 ? std::sqrt(gap2 / norm2) : std::sqrt(gap2);
        ASSERT_TRUE(std::isfinite(rel)) << "request " << i;
        meanRel += rel;
        maxRel = std::max(maxRel, rel);
    }
    meanRel /= static_cast<double>(kRequests);
    EXPECT_LE(meanRel, maxRel);
    EXPECT_LT(meanRel, 0.22)
        << "served embeddings diverged from the final-graph replay";
}

TEST(DynamicServing, SteadyStateChurnServingIsAllocFree)
{
    if (!ScopedAllocGuard::interpositionActive())
        GTEST_SKIP() << "interposer compiled out (GRAPHITE_CHECKS off)";
    DeltaCsr overlay(generateBarabasiAlbert(800, 6, 42), 8192);
    DenseMatrix features(overlay.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 12);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 50;
    config.hotCacheCapacity = 64;
    InferenceServer server(overlay, features, model.layers(), config);
    obs::MetricsRegistry::global().setEnabled(true);
    server.warmup();
    // Warm the insert path (first counter registration, etc.).
    Rng warmRng(41);
    for (int i = 0; i < 8;) {
        const auto src = static_cast<VertexId>(warmRng.next() % 800);
        const auto dst = static_cast<VertexId>(warmRng.next() % 800);
        if (server.insertEdge(src, dst) == DeltaCsr::AddEdge::Added)
            ++i;
    }

    constexpr std::size_t kRequests = 128;
    DenseMatrix served(kRequests, server.outFeatures());
    for (std::size_t i = 0; i < kRequests; ++i) {
        InferenceRequest req = makeRequest(
            i, static_cast<VertexId>((i * 13) % 800));
        req.out = served.row(i);
        ASSERT_TRUE(server.queue().push(req));
    }
    server.queue().close();
    // Spawn the updater before the guard (thread creation allocates);
    // it waits for the start flag so its inserts land inside the
    // guarded region, concurrent with the serving drain.
    std::atomic<bool> start{false};
    std::atomic<bool> done{false};
    std::thread updater([&server, &start, &done] {
        while (!start.load(std::memory_order_acquire))
            std::this_thread::yield();
        Rng rng(43);
        for (int i = 0; i < 256;) {
            const auto src = static_cast<VertexId>(rng.next() % 800);
            const auto dst = static_cast<VertexId>(rng.next() % 800);
            if (server.insertEdge(src, dst) ==
                DeltaCsr::AddEdge::Added)
                ++i;
        }
        done.store(true, std::memory_order_release);
    });
    {
        ScopedAllocGuard guard("churn serve steady state");
        start.store(true, std::memory_order_release);
        server.run();
        while (!done.load(std::memory_order_acquire))
            std::this_thread::yield();
        if (ScopedAllocGuard::interpositionActive()) {
            EXPECT_EQ(guard.allocations(), 0u)
                << "insert+serve steady state allocated after warmup";
        }
    }
    updater.join();
    obs::MetricsRegistry::global().setEnabled(false);
    EXPECT_GE(server.stats().requestsServed, kRequests);
    EXPECT_EQ(server.stats().edgeInserts, 256u + 8u);
}

TEST(DynamicServing, CompactionRequestOnIdleServerIsHonoured)
{
    // Write-only traffic: the consumer runs but no read ever arrives.
    // A writer refused with PoolFull asks for a compaction; the idle
    // consumer must wake up and perform it.
    DeltaCsr overlay(generateBarabasiAlbert(300, 4, 51), 32);
    DenseMatrix features(overlay.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 13);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.hotCacheCapacity = 16;
    InferenceServer server(overlay, features, model.layers(), config);
    std::thread consumer([&server] { server.run(); });
    // Let the consumer reach its blocking popBatch; a request made
    // before that is seen at the top of run()'s loop either way.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    Rng rng(53);
    auto randomInsert = [&] {
        for (;;) {
            const auto src = static_cast<VertexId>(rng.next() % 300);
            const auto dst = static_cast<VertexId>(rng.next() % 300);
            const DeltaCsr::AddEdge result = server.insertEdge(src, dst);
            if (result == DeltaCsr::AddEdge::Added ||
                result == DeltaCsr::AddEdge::PoolFull)
                return result;
        }
    };
    while (randomInsert() == DeltaCsr::AddEdge::Added) {
    }
    ASSERT_EQ(overlay.deltaEdges(), overlay.maxDeltaEdges());
    server.requestCompaction();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.stats().compactions == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(server.stats().compactions, 1u)
        << "an idle consumer must honour requestCompaction()";
    EXPECT_EQ(randomInsert(), DeltaCsr::AddEdge::Added)
        << "the compaction must give the refused writer room back";
    server.queue().close();
    consumer.join();
    EXPECT_EQ(server.stats().requestsServed, 0u);
    EXPECT_EQ(overlay.validate(), nullptr);
}

TEST(DynamicServing, CarriedInstallMatchesReplayedOverlayBitwise)
{
    // An install whose snapshot saw only part of the inserts must
    // serve exactly like a fresh overlay over that snapshot with the
    // carried inserts replayed in order. The partial snapshot is made
    // deterministic by driving compacted() + inserts +
    // installCompacted() directly; no batch has run yet, so the hot
    // cache holds no row gathered before the install.
    constexpr VertexId n = 600;
    DeltaCsr overlay(generateBarabasiAlbert(n, 5, 23), 2048);
    DenseMatrix features(n, 16);
    features.fillUniform(0.0f, 1.0f, 14);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 500;
    config.hotCacheCapacity = 64;
    // Pinned, so both servers admit the same hubs (see
    // PostCompactionMatchesFreshServerBitwise).
    config.hotCacheMinDegree = 20;
    InferenceServer server(overlay, features, model.layers(), config);

    Rng rng(37);
    auto insertSome = [&](int count,
                          std::vector<std::pair<VertexId, VertexId>> *log) {
        for (int i = 0; i < count;) {
            // Every third insert lands on a low-id hub, so hub rows
            // carry edges past the snapshot.
            const auto src = static_cast<VertexId>(
                i % 3 == 0 ? rng.next() % 16 : rng.next() % n);
            const auto dst = static_cast<VertexId>(rng.next() % n);
            if (server.insertEdge(src, dst) == DeltaCsr::AddEdge::Added) {
                if (log != nullptr)
                    log->emplace_back(src, dst);
                ++i;
            }
        }
    };
    insertSome(500, nullptr);
    const CsrGraph snapshot = overlay.compacted();
    std::vector<std::pair<VertexId, VertexId>> carried;
    insertSome(200, &carried);
    overlay.installCompacted(snapshot);
    ASSERT_EQ(overlay.deltaEdges(), carried.size());

    DeltaCsr replayed(snapshot, 2048);
    TestModel replayModel(16);
    InferenceServer reference(replayed, features, replayModel.layers(),
                              config);
    for (const auto &[src, dst] : carried)
        ASSERT_EQ(reference.insertEdge(src, dst), DeltaCsr::AddEdge::Added);

    std::vector<Feature> a(server.outFeatures());
    std::vector<Feature> b(server.outFeatures());
    for (std::uint64_t id = 0; id < 48; ++id) {
        const auto v = static_cast<VertexId>(id < 16 ? id : (id * 13) % n);
        server.serveOne(id, v, a.data());
        reference.serveOne(id, v, b.data());
        EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                                 a.size() * sizeof(Feature)))
            << "sampled replay " << id << " differs after the install";
        server.serveOneHubExact(id, v, a.data());
        reference.serveOneHubExact(id, v, b.data());
        EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                                 a.size() * sizeof(Feature)))
            << "hub-exact replay " << id << " differs after the install";
    }

    // Cache-on serving over the installed overlay agrees too.
    std::thread consumer([&server] { server.run(); });
    DenseMatrix served(16, server.outFeatures());
    for (std::uint64_t i = 0; i < 16; ++i) {
        InferenceRequest req = makeRequest(100 + i, static_cast<VertexId>(i));
        req.out = served.row(i);
        while (!server.queue().push(req))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    waitServed(server, 2 * 48 + 16);
    server.queue().close();
    consumer.join();
    for (std::uint64_t i = 0; i < 16; ++i) {
        reference.serveOneHubExact(100 + i, static_cast<VertexId>(i),
                                   b.data());
        EXPECT_EQ(0, std::memcmp(served.row(i), b.data(),
                                 b.size() * sizeof(Feature)))
            << "cache-on request " << i << " differs after the install";
    }
}

TEST(DynamicServing, CompactInstallHistogramCountsEveryCompaction)
{
    // serve.compact_install_us records one sample per install, so the
    // writer-visible stall is readable from the metrics alone.
    obs::Histogram &installHist =
        obs::MetricsRegistry::global().histogram("serve.compact_install_us");
    obs::MetricsRegistry::global().setEnabled(true);
    const std::uint64_t before = installHist.count();

    DeltaCsr overlay(generateBarabasiAlbert(800, 6, 42), 8192);
    DenseMatrix features(overlay.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 15);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 100;
    config.hotCacheCapacity = 64;
    InferenceServer server(overlay, features, model.layers(), config);
    std::thread consumer([&server] { server.run(); });
    std::thread updater([&server] {
        Rng rng(47);
        for (int i = 0; i < 1200; ++i) {
            const auto src = static_cast<VertexId>(rng.next() % 800);
            const auto dst = static_cast<VertexId>(rng.next() % 800);
            (void)server.insertEdge(src, dst);
            if (i % 300 == 299)
                server.requestCompaction();
        }
    });
    constexpr std::size_t kRequests = 256;
    DenseMatrix served(kRequests, server.outFeatures());
    for (std::size_t i = 0; i < kRequests; ++i) {
        InferenceRequest req =
            makeRequest(i, static_cast<VertexId>((i * 7) % 800));
        req.out = served.row(i);
        while (!server.queue().push(req))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    updater.join();
    // Requests can coalesce: wait until the consumer has performed at
    // least one before closing.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.stats().compactions == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.queue().close();
    consumer.join();
    // And one more through compactNow(), the other caller.
    for (VertexId dst = 1; overlay.deltaEdges() == 0; ++dst)
        (void)server.insertEdge(0, dst);
    server.compactNow();
    obs::MetricsRegistry::global().setEnabled(false);

    const serve::ServeStats stats = server.stats();
    EXPECT_GE(stats.compactions, 2u);
    EXPECT_EQ(installHist.count() - before, stats.compactions);
    EXPECT_EQ(overlay.deltaEdges(), 0u);
    EXPECT_EQ(overlay.validate(), nullptr);
}

} // namespace
} // namespace graphite
