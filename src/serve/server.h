/**
 * @file
 * Low-latency online GNN inference server (DESIGN.md §13): a dynamic
 * micro-batcher over the MPSC RequestQueue that coalesces queued
 * per-vertex queries into one neighbor-sampled forward pass under a
 * latency budget, reusing the mini-batch sampling machinery
 * (sampleTree) and the precision-keyed packed-weight plan caches in
 * GnnLayer.
 *
 * Determinism contract: each request's K-hop neighborhood is sampled
 * independently with Rng(requestSeed(id)), and the batch forward is a
 * block-diagonal concatenation of the per-request trees whose GEMM
 * (gemmBlockSerial) accumulates each output row independently — so a
 * served embedding is bitwise identical to serveOne() replaying the
 * same request id offline, regardless of batch composition, as long
 * as the hot-vertex cache is off. With the cache on, a hub (degree at
 * or above the admission threshold fixed at construction) is not
 * expanded at the innermost layer: its layer-0 output is
 * h1 = act(W0 * fullMean + b0) over its whole neighborhood, served as
 * one cached row instead of a sampled gather and a GEMM row. Cache-on
 * results then differ from serveOne() by the sampling estimate's own
 * error, and equal serveOneHubExact() bit for bit.
 *
 * The steady-state serving loop is allocation-free after warmup():
 * scratch matrices are reshape()d inside ctor-reserved worst-case
 * footprints, the sampler reuses stamped scratch, and the cache
 * preallocates every slot.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "gnn/gnn_layer.h"
#include "graph/csr_graph.h"
#include "graph/delta_csr.h"
#include "sampling/neighbor_sampler.h"
#include "serve/hot_vertex_cache.h"
#include "serve/request_queue.h"
#include "tensor/dense_matrix.h"
#include "tensor/gemm_plan.h"

namespace graphite::serve {

/** Serving-side knobs (see the graphite_serve tool for CLI mapping). */
struct ServeConfig
{
    /** Per-layer sampling fan-outs, innermost layer first. */
    std::vector<VertexId> fanouts = {10, 10};
    /** Max requests coalesced into one forward pass. */
    std::size_t maxBatch = 64;
    /** Batch-close deadline measured from the first queued request. */
    std::int64_t latencyBudgetUs = 200;
    /** RequestQueue ring capacity. */
    std::size_t queueCapacity = 4096;
    /**
     * Hot-vertex cache row slots, one finished layer-0 row per hub;
     * 0 disables the cache.
     */
    std::size_t hotCacheCapacity = 0;
    /**
     * Hub admission degree threshold, fixed at construction. A positive
     * value is used as given, even with the cache off (a hub-exact
     * oracle mirrors another server's gate that way). 0 derives it:
     * 0 with the cache off, else max(churnFreeDegreeThreshold(graph,
     * capacity), max fanout + 1).
     */
    EdgeId hotCacheMinDegree = 0;
    /** Update-GEMM precision (the per-precision plan-cache key). */
    Precision precision = Precision::Fp32;
};

/**
 * Monotonic serving counters (readable from any thread).
 *
 * requestsServed is also the result-publication edge: the consumer
 * bumps it with a release fetch_add after writing every request's
 * output row and latency slot, and stats() reads it with acquire — a
 * producer that polls stats() until requestsServed covers its request
 * may then read the request's InferenceRequest::out/latencyUs storage
 * without further synchronization (the load generator's quiesce loop
 * and the churn tests rely on this).
 */
struct ServeStats
{
    std::uint64_t requestsServed = 0;
    std::uint64_t batchesServed = 0;
    /**
     * Row bytes read by aggregation gathers (all layers); a cache hit
     * counts its one cached row.
     */
    std::uint64_t bytesGathered = 0;
    /** Accepted edge inserts through insertEdge() (overlay mode). */
    std::uint64_t edgeInserts = 0;
    /** Overlay compactions performed by this server. */
    std::uint64_t compactions = 0;
    HotVertexCache::Stats cache;
};

/**
 * Single-consumer inference server over a trained GnnLayer stack
 * (borrowed, e.g. MiniBatchTrainer::layerPointers()). Producers push
 * into queue(); one thread runs run() until the queue is closed.
 */
class InferenceServer
{
  public:
    /**
     * @param layers innermost-first layer stack; layer 0's input width
     *        must equal features.cols(). Not owned; weights must not
     *        be mutated while serving.
     */
    InferenceServer(const CsrGraph &graph, const DenseMatrix &features,
                    std::vector<GnnLayer *> layers, ServeConfig config);

    /**
     * Dynamic-graph mode: serve over a DeltaCsr overlay (borrowed, not
     * owned). Sampling, hub gathers and cache admission all see base +
     * delta adjacency; insertEdge() feeds the overlay and keeps the
     * hot-vertex cache coherent (DESIGN.md §14). The overlay must
     * outlive the server; external writers must not touch it while the
     * server is live (route all inserts through insertEdge()).
     */
    InferenceServer(DeltaCsr &graph, const DenseMatrix &features,
                    std::vector<GnnLayer *> layers, ServeConfig config);

    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    RequestQueue &queue() { return queue_; }
    const ServeConfig &config() const { return config_; }
    const CsrGraph &graph() const { return graph_; }
    /** Overlay being served, or nullptr in frozen-CSR mode. */
    const DeltaCsr *overlay() const { return overlay_; }
    /** Output width of the served embeddings (last layer's). */
    std::size_t outFeatures() const;
    /** Hub admission threshold, resolved at construction. */
    EdgeId hotDegreeThreshold() const { return hotDegreeThreshold_; }

    /**
     * Edge-update path (overlay mode only): insert src -> dst into the
     * overlay and keep the serving state coherent: the source's
     * cached row is invalidated. Thread-safe against the consumer
     * loop, serveOne() and other insertEdge() callers; never blocks on
     * the request queue.
     */
    DeltaCsr::AddEdge insertEdge(VertexId src, VertexId dst);

    /**
     * Ask the consumer loop to compact the overlay between batches.
     * Wakes an idle consumer, so the request is honoured without
     * waiting for the next read (a writer refused with PoolFull gets
     * room back). The consumer builds the merged CSR while
     * insertEdge() and the oracle keep running, then
     * installs it with both excluded, carrying over the edges inserted
     * during the build (DESIGN.md §14). No-op in frozen-CSR mode.
     */
    void requestCompaction();

    /**
     * Compact the overlay on the calling thread, by the same build and
     * install as requestCompaction(). Caller must guarantee the
     * consumer loop is not mid-batch (idle, or not started, or
     * drained); insertEdge()/serveOne() callers keep running during
     * the build and are excluded from the install internally. With no
     * concurrent insertEdge() every delta is merged (deltaEdges() is 0
     * afterwards). No-op in frozen-CSR mode.
     */
    void compactNow();

    /**
     * Prime every lazy allocation on the serving path (packed weight
     * plans, GEMM pack scratch, sampler/forward scratch growth, trace
     * rings) by running synthetic worst-case batches, so the steady
     * loop afterwards is heap-quiet under ScopedAllocGuard.
     */
    void warmup();

    /**
     * Consumer loop: pop micro-batches under the latency budget and
     * serve them until the queue is closed and drained. Exactly one
     * thread may run this at a time.
     */
    void run();

    /**
     * Offline single-request forward for @p requestId/@p vertex with
     * the cache bypassed — the replay oracle the serving results are
     * verified against. Uses its own scratch; safe to call while run()
     * executes on another thread.
     */
    void serveOne(std::uint64_t requestId, VertexId vertex, Feature *out);

    /**
     * Cache-disabled forward that mirrors the cache-on aggregation
     * *policy*: admissible hubs are left unexpanded by the sampler and
     * take the exact full-neighborhood mean at layer 0 (freshly
     * gathered, never cached), everything else the sampled estimate.
     * This is the bitwise oracle for cache-on serving — with churn
     * quiesced, a cache-on batch and this replay produce identical
     * embeddings bit for bit.
     */
    void serveOneHubExact(std::uint64_t requestId, VertexId vertex,
                          Feature *out);

    ServeStats stats() const;

  private:
    /** Preallocated per-consumer working state for forwardBatch. */
    struct ForwardScratch;

    /** Layer-0 aggregation policy of one forward pass. */
    enum class AggPolicy
    {
        /** Pure sampled estimate everywhere (the replay oracle). */
        Sampled,
        /** Hubs take the exact mean; their finished layer-0 rows
            come from the hot-vertex cache. */
        HubExactCached,
        /** Hubs take the exact mean, freshly gathered, cache bypassed
            (the bitwise oracle for HubExactCached). */
        HubExactUncached,
    };

    /** The one constructor body; @p overlay is null in frozen mode. */
    InferenceServer(const CsrGraph &graph, DeltaCsr *overlay,
                    const DenseMatrix &features,
                    std::vector<GnnLayer *> layers, ServeConfig config);

    /**
     * Call @p fn with the graph being served — the overlay in dynamic
     * mode, else the frozen CSR — so graph-generic code picks its graph
     * type once per call.
     */
    template <typename Fn>
    decltype(auto)
    withGraph(Fn &&fn) const
    {
        if (overlay_ != nullptr)
            return fn(static_cast<const DeltaCsr &>(*overlay_));
        return fn(graph_);
    }

    std::unique_ptr<ForwardScratch> makeScratch(std::size_t maxBatch) const;

    /**
     * Sample + aggregate + layer-stack forward for @p n requests in
     * @p scratch.batch, writing each request's embedding row and
     * latency. @p policy selects how admissible layer-0 destinations
     * aggregate (see AggPolicy).
     */
    void forwardBatch(ForwardScratch &scratch, std::size_t n,
                      AggPolicy policy);

    /** forwardBatch over @p graph (the overlay or the frozen CSR). */
    template <GraphView G>
    void forwardBatchOn(const G &graph, ForwardScratch &scratch,
                        std::size_t n, AggPolicy policy);

    /**
     * The one compaction path: build the snapshot off-lock, then
     * install it and flush the cache with updates and oracle reads
     * excluded.
     */
    void compactOverlay();

    const CsrGraph &graph_;
    /** Overlay in dynamic mode, nullptr when serving a frozen CSR. */
    DeltaCsr *overlay_ = nullptr;
    const DenseMatrix &features_;
    std::vector<GnnLayer *> layers_;
    ServeConfig config_;
    const EdgeId hotDegreeThreshold_;
    RequestQueue queue_;
    HotVertexCache cache_;
    std::unique_ptr<ForwardScratch> scratch_;       ///< run()'s state
    std::unique_ptr<ForwardScratch> oracleScratch_; ///< serveOne's
    /** Serializes serveOne callers (one oracle scratch). */
    Mutex oracleMutex_;
    /** Serializes insertEdge callers and the install vs updates. */
    Mutex updateMutex_;
    /**
     * Serializes compactions: an install must see the base its
     * snapshot was built on.
     */
    Mutex compactMutex_;
    /** Set by requestCompaction, consumed by run() between batches. */
    std::atomic<bool> compactionRequested_{false};

    std::atomic<std::uint64_t> requestsServed_{0};
    std::atomic<std::uint64_t> batchesServed_{0};
    std::atomic<std::uint64_t> bytesGathered_{0};
    std::atomic<std::uint64_t> edgeInserts_{0};
    std::atomic<std::uint64_t> compactions_{0};
};

} // namespace graphite::serve
