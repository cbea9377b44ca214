#include "serve/server.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "kernels/mean_gather.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite::serve {

namespace {

/**
 * Auto-mode cache admission threshold of @p graph. It aims the cache at
 * the true hub set: roughly the capacity-th largest degree, but never
 * below the mean degree or the largest fanout — vertices below either
 * gain little from caching (their sampled fan-in is already the full
 * fan-in). @p degrees is degreeAtRank's reusable scratch.
 */
template <GraphView G>
EdgeId
autoHotThreshold(const G &graph, const ServeConfig &config,
                 std::vector<EdgeId> &degrees)
{
    const EdgeId capacityTh =
        degreeAtRank(graph, config.hotCacheCapacity, degrees);
    const EdgeId n = graph.numVertices();
    const EdgeId avgPlusOne = (graph.numEdges() + n - 1) / n + 1;
    EdgeId maxFanout = 0;
    for (const VertexId f : config.fanouts)
        maxFanout = std::max<EdgeId>(maxFanout, f);
    return std::max({capacityTh, avgPlusOne, maxFanout + 1});
}

/** The configured admission threshold, derived when auto (cold). */
template <GraphView G>
EdgeId
resolveHotThreshold(const G &graph, const ServeConfig &config)
{
    if (config.hotCacheMinDegree > 0 || config.hotCacheCapacity == 0 ||
        graph.numVertices() == 0)
        return config.hotCacheMinDegree;
    std::vector<EdgeId> degrees;
    return autoHotThreshold(graph, config, degrees);
}

} // namespace

/** Preallocated per-consumer working state for forwardBatch. */
struct InferenceServer::ForwardScratch
{
    ForwardScratch(VertexId numVertices, std::size_t maxBatchIn)
        : sampler(numVertices), maxBatch(maxBatchIn)
    {
    }

    SamplerScratch sampler;
    std::size_t maxBatch;
    /** popBatch output; maxBatch entries. */
    std::vector<InferenceRequest> batch;
    /** Per-request sampled trees (block-diagonal batch members). */
    std::vector<SampledTree> trees;
    /** Per-layer aggregation inputs, reshaped per batch. */
    std::vector<DenseMatrix> agg;
    /** Per-layer update outputs, reshaped per batch. */
    std::vector<DenseMatrix> out;
    /** Row base of request r at layer k: dstOffset[k*(maxBatch+1)+r]. */
    std::vector<std::size_t> dstOffset;
};

InferenceServer::InferenceServer(const CsrGraph &graph,
                                 const DenseMatrix &features,
                                 std::vector<GnnLayer *> layers,
                                 ServeConfig config)
    : InferenceServer(graph, nullptr, features, std::move(layers),
                      std::move(config))
{
}

InferenceServer::InferenceServer(DeltaCsr &graph,
                                 const DenseMatrix &features,
                                 std::vector<GnnLayer *> layers,
                                 ServeConfig config)
    : InferenceServer(graph.base(), &graph, features, std::move(layers),
                      std::move(config))
{
}

InferenceServer::InferenceServer(const CsrGraph &graph, DeltaCsr *overlay,
                                 const DenseMatrix &features,
                                 std::vector<GnnLayer *> layers,
                                 ServeConfig config)
    : graph_(graph), overlay_(overlay), features_(features),
      layers_(std::move(layers)), config_(std::move(config)),
      hotDegreeThreshold_(withGraph([&](const auto &g) {
          return resolveHotThreshold(g, config_);
      })),
      queue_(config_.queueCapacity),
      cache_(config_.hotCacheCapacity, config_.hotCacheShards,
             features.cols(), hotDegreeThreshold()),
      liveStats_(withGraph(
          [](const auto &g) { return computeGraphStats(g); }))
{
    GRAPHITE_ASSERT(!layers_.empty(), "serving needs at least one layer");
    GRAPHITE_ASSERT(layers_.size() == config_.fanouts.size(),
                    "one fanout per layer, innermost first");
    GRAPHITE_ASSERT(layers_.front()->inFeatures() == features_.cols(),
                    "layer 0 input width must match the feature table");
    for (std::size_t k = 0; k < layers_.size(); ++k) {
        // graphite-lint: allow(assert) cold ctor contract checks, once
        // per layer, not per request.
        GRAPHITE_ASSERT(layers_[k]->bias().size() ==
                            layers_[k]->outFeatures(),
                        "bias width mismatch");
        if (k + 1 < layers_.size()) {
            // graphite-lint: allow(assert) cold ctor contract check.
            GRAPHITE_ASSERT(layers_[k]->outFeatures() ==
                                layers_[k + 1]->inFeatures(),
                            "layer stack width mismatch");
        }
    }
    scratch_ = makeScratch(config_.maxBatch);
    oracleScratch_ = makeScratch(1);
    if (overlay_ != nullptr) {
        // Pre-size the refresh scratch so periodic threshold
        // re-derivation under churn never allocates.
        MutexLock lock(updateMutex_);
        degreeScratch_.resize(graph.numVertices());
    }
}

InferenceServer::~InferenceServer() = default;

std::size_t
InferenceServer::outFeatures() const
{
    return layers_.back()->outFeatures();
}

std::unique_ptr<InferenceServer::ForwardScratch>
InferenceServer::makeScratch(std::size_t maxBatch) const
{
    auto scratch =
        std::make_unique<ForwardScratch>(graph_.numVertices(), maxBatch);
    const std::size_t K = config_.fanouts.size();
    // Worst-case (no cross-destination dedup) row bounds per request:
    // the outermost layer serves exactly the seed; each inner layer's
    // destination set is at most the outer one fanned out by
    // (fanout + 1) (self term included).
    std::vector<std::size_t> dstBound(K, 1);
    for (std::size_t k = K - 1; k-- > 0;)
        dstBound[k] = dstBound[k + 1] * (config_.fanouts[k + 1] + 1);

    scratch->batch.resize(maxBatch);
    scratch->trees.resize(maxBatch);
    scratch->dstOffset.resize(K * (maxBatch + 1), 0);
    scratch->agg.resize(K);
    scratch->out.resize(K);
    for (std::size_t k = 0; k < K; ++k) {
        scratch->agg[k].reshape(maxBatch * dstBound[k],
                                layers_[k]->inFeatures());
        scratch->out[k].reshape(maxBatch * dstBound[k],
                                layers_[k]->outFeatures());
    }
    for (auto &tree : scratch->trees) {
        // graphite-lint: allow(alloc) cold scratch construction: the
        // worst-case reservation that keeps the serving loop heap-quiet.
        tree.blocks.resize(K);
        for (std::size_t k = 0; k < K; ++k) {
            FlatBlock &block = tree.blocks[k];
            const std::size_t srcBound =
                dstBound[k] * (config_.fanouts[k] + 1);
            // graphite-lint: allow(alloc) cold scratch construction.
            block.rowPtr.reserve(dstBound[k] + 1);
            // graphite-lint: allow(alloc) cold scratch construction.
            block.dstVertices.reserve(dstBound[k]);
            // graphite-lint: allow(alloc) cold scratch construction.
            block.srcVertices.reserve(srcBound);
            // graphite-lint: allow(alloc) cold scratch construction.
            block.colIdx.reserve(dstBound[k] * config_.fanouts[k]);
        }
    }
    return scratch;
}

void
InferenceServer::forwardBatch(ForwardScratch &scratch, std::size_t n,
                              AggPolicy policy)
{
    withGraph([&](const auto &graph) {
        forwardBatchOn(graph, scratch, n, policy);
    });
}

template <GraphView G>
void
InferenceServer::forwardBatchOn(const G &graph, ForwardScratch &scratch,
                                std::size_t n, AggPolicy policy)
{
    GRAPHITE_TRACE_SPAN("serve.batch");
    auto &metrics = obs::MetricsRegistry::global();
    static obs::Counter &requestsCounter =
        metrics.counter("serve.requests");
    static obs::Counter &batchesCounter = metrics.counter("serve.batches");
    static obs::Counter &bytesCounter =
        metrics.counter("serve.bytes_gathered");
    static obs::Histogram &batchSizeHist =
        metrics.histogram("serve.batch_size");
    static obs::Histogram &latencyHist =
        metrics.histogram("serve.latency_us");

    GRAPHITE_ASSERT(n > 0 && n <= scratch.maxBatch,
                    "forwardBatch: batch size out of range");
    const std::size_t K = config_.fanouts.size();
    const std::span<const VertexId> fanouts(config_.fanouts);

    // 1. Sample every request's K-hop tree independently from its id —
    // the batch is block-diagonal, so each tree (and through the
    // row-independent GEMM, each embedding) is a pure function of the
    // request id, whatever else shares the batch.
    for (std::size_t r = 0; r < n; ++r) {
        Rng rng(requestSeed(scratch.batch[r].id));
        sampleTree(graph, scratch.batch[r].vertex, fanouts, rng,
                   scratch.sampler, scratch.trees[r]);
    }

    // 2. Per-layer destination row offsets of the concatenation.
    for (std::size_t k = 0; k < K; ++k) {
        std::size_t *off =
            scratch.dstOffset.data() + k * (scratch.maxBatch + 1);
        std::size_t total = 0;
        for (std::size_t r = 0; r < n; ++r) {
            off[r] = total;
            total += scratch.trees[r].blocks[k].dstVertices.size();
        }
        off[n] = total;
    }

    // 3. Layer stack: sampled mean aggregation per destination row,
    // then one serial packed GEMM over the concatenated rows — the
    // batching win; the plan cache in GnnLayer amortises the pack.
    std::uint64_t bytes = 0;
    const bool cacheActive =
        policy == AggPolicy::HubExactCached && cache_.enabled();
    // HubExactCached degrades to the pure sampled estimate when the
    // cache is disabled — serving then stays bitwise identical to the
    // serveOne() replay, the header's determinism contract. Only the
    // explicit oracle policy takes the hub-exact path cache-free.
    const bool hubExact =
        cacheActive || policy == AggPolicy::HubExactUncached;
    for (std::size_t k = 0; k < K; ++k) {
        GnnLayer &layer = *layers_[k];
        const std::size_t inF = layer.inFeatures();
        const std::size_t *off =
            scratch.dstOffset.data() + k * (scratch.maxBatch + 1);
        const std::size_t *prevOff =
            k > 0
                ? scratch.dstOffset.data() + (k - 1) * (scratch.maxBatch + 1)
                : nullptr;
        const std::size_t totalDst = off[n];
        DenseMatrix &agg = scratch.agg[k];
        agg.reshape(totalDst, inF);
        DenseMatrix &outM = scratch.out[k];
        outM.reshape(totalDst, layer.outFeatures());
        const DenseMatrix &src = k > 0 ? scratch.out[k - 1] : features_;
        const Bytes srcRowBytes = src.rowBytes();

        for (std::size_t r = 0; r < n; ++r) {
            const FlatBlock &block = scratch.trees[r].blocks[k];
            const std::size_t numDst = block.dstVertices.size();
            const std::size_t srcBase = k > 0 ? prevOff[r] : 0;
            for (std::size_t i = 0; i < numDst; ++i) {
                Feature *dstRow = agg.row(off[r] + i);
                if (k == 0 && hubExact) {
                    const VertexId v = block.dstVertices[i];
                    const EdgeId deg = graph.degree(v);
                    if (cache_.admits(deg)) {
                        if (cacheActive && cache_.lookup(v, dstRow)) {
                            // Hub hit: one cached row read replaces
                            // the whole fan-in gather.
                            bytes += srcRowBytes;
                            continue;
                        }
                        // Stale-fill protocol: snapshot the shard fill
                        // epoch *before* gathering; a concurrent edge
                        // insert on this shard bumps it, and
                        // putIfFresh then discards this row rather
                        // than installing pre-insert adjacency.
                        const std::uint64_t epoch =
                            cacheActive ? cache_.fillEpoch(v) : 0;
                        fullMeanRow(graph, features_, v, dstRow);
                        bytes += (deg + 1) * srcRowBytes;
                        if (cacheActive)
                            cache_.putIfFresh(v, dstRow, epoch);
                        continue;
                    }
                }
                // Sampled SAGE-mean over local source indices: layer 0
                // reads input features through srcVertices, deeper
                // layers the previous layer's rows of this request.
                // Local index i is the destination's own row.
                const std::span<const VertexId> sampled =
                    block.neighbors(i);
                meanGatherRow(
                    static_cast<VertexId>(i), sampled,
                    [&](VertexId j) {
                        return k > 0 ? src.row(srcBase + j)
                                     : src.row(block.srcVertices[j]);
                    },
                    inF, dstRow);
                bytes += (1 + sampled.size()) * srcRowBytes;
            }
        }

        gemmBlockSerial(agg.row(0), totalDst, agg.rowStride(),
                        layer.packedWeights(config_.precision),
                        outM.row(0), outM.rowStride(), inF);
        GRAPHITE_DCHECK(layer.bias().size() == outM.cols(),
                        "bias width mismatch");
        finishUpdateBlock(outM.row(0), totalDst, outM.rowStride(),
                          outM.cols(), layer.bias(), layer.hasRelu());
    }

    // 4. Deliver: the outermost layer has exactly one destination row
    // per request (its seed).
    const DenseMatrix &finalOut = scratch.out[K - 1];
    const std::size_t *finalOff =
        scratch.dstOffset.data() + (K - 1) * (scratch.maxBatch + 1);
    const std::size_t outF = layers_.back()->outFeatures();
    const std::uint64_t now = monotonicNanos();
    for (std::size_t r = 0; r < n; ++r) {
        const InferenceRequest &req = scratch.batch[r];
        GRAPHITE_DCHECK(
            scratch.trees[r].blocks[K - 1].dstVertices.size() == 1,
            "outermost block must hold exactly the seed");
        const Feature *embedding = finalOut.row(finalOff[r]);
        if (req.out != nullptr)
            std::memcpy(req.out, embedding, outF * sizeof(Feature));
        const std::uint64_t elapsedNs =
            now > req.enqueueNs ? now - req.enqueueNs : 0;
        if (req.latencyUs != nullptr)
            *req.latencyUs = static_cast<double>(elapsedNs) / 1000.0;
        latencyHist.observe(elapsedNs / 1000);
    }

    requestsCounter.add(n);
    batchesCounter.increment();
    bytesCounter.add(bytes);
    batchSizeHist.observe(n);
    // Release-publish the batch: every req.out/req.latencyUs write
    // above happens-before a reader that acquires requestsServed via
    // stats() and observes the bumped count — the only completion
    // signal a producer can poll before reading its output row.
    requestsServed_.fetch_add(n, std::memory_order_release);
    batchesServed_.fetch_add(1, std::memory_order_relaxed);
    bytesGathered_.fetch_add(bytes, std::memory_order_relaxed);
}

void
InferenceServer::warmup()
{
    GRAPHITE_ASSERT(graph_.numVertices() > 0, "warmup needs a graph");
    // Three passes over a synthetic full batch touch every lazy
    // allocation on the path: the packed-weight plan, the GEMM pack
    // scratch, metric/trace registration, sampler buffers, and both
    // the cache-fill and cache-hit branches. Row-count worst cases are
    // already reserved by makeScratch.
    const std::size_t n = config_.maxBatch;
    for (std::size_t pass = 0; pass < 3; ++pass) {
        for (std::size_t r = 0; r < n; ++r) {
            InferenceRequest &req = scratch_->batch[r];
            // High ids keep warmup sampling streams disjoint from live
            // request ids without affecting them (trees are per-id).
            req.id = ~std::uint64_t{0} - r - pass * n;
            req.vertex = static_cast<VertexId>(
                (r + pass * n) % graph_.numVertices());
            req.enqueueNs = monotonicNanos();
            req.out = nullptr;
            req.latencyUs = nullptr;
        }
        forwardBatch(*scratch_, n,
                     pass < 2 ? AggPolicy::HubExactCached
                              : AggPolicy::Sampled);
    }
    serveOne(~std::uint64_t{0}, 0, nullptr);
    serveOneHubExact(~std::uint64_t{0}, 0, nullptr);
}

void
InferenceServer::run()
{
    const std::int64_t budgetNs = config_.latencyBudgetUs * 1000;
    for (;;) {
        // Honor compaction requests between batches: this thread is
        // the only batch forwarder, so no batch reads the overlay while
        // compactOverlay() installs.
        if (compactionRequested_.exchange(false,
                                          std::memory_order_acq_rel) &&
            overlay_ != nullptr)
            compactOverlay();
        const std::size_t n = queue_.popBatch(
            scratch_->batch.data(), config_.maxBatch, budgetNs);
        if (n > 0)
            forwardBatch(*scratch_, n, AggPolicy::HubExactCached);
        else if (queue_.drained())
            return;
        // else: woken by requestCompaction() on an empty queue.
    }
}

void
InferenceServer::serveOne(std::uint64_t requestId, VertexId vertex,
                          Feature *out)
{
    MutexLock lock(oracleMutex_);
    InferenceRequest &req = oracleScratch_->batch[0];
    req.id = requestId;
    req.vertex = vertex;
    req.enqueueNs = monotonicNanos();
    req.out = out;
    req.latencyUs = nullptr;
    forwardBatch(*oracleScratch_, 1, AggPolicy::Sampled);
}

void
InferenceServer::serveOneHubExact(std::uint64_t requestId,
                                  VertexId vertex, Feature *out)
{
    MutexLock lock(oracleMutex_);
    InferenceRequest &req = oracleScratch_->batch[0];
    req.id = requestId;
    req.vertex = vertex;
    req.enqueueNs = monotonicNanos();
    req.out = out;
    req.latencyUs = nullptr;
    forwardBatch(*oracleScratch_, 1, AggPolicy::HubExactUncached);
}

DeltaCsr::AddEdge
InferenceServer::insertEdge(VertexId src, VertexId dst)
{
    GRAPHITE_ASSERT(overlay_ != nullptr,
                    "insertEdge requires overlay (dynamic-graph) mode");
    MutexLock lock(updateMutex_);
    const DeltaCsr::AddEdge result = overlay_->addEdge(src, dst);
    if (result != DeltaCsr::AddEdge::Added)
        return result;

    const EdgeId newDegree = overlay_->degree(src);
    liveStats_.onEdgeInserted(newDegree);

    // Cache coherence: src's cached aggregation row now misses the new
    // neighbor. Patch it in place (exact mean rescale) or drop it;
    // both bump the shard fill epoch, so any in-flight fill gathered
    // from pre-insert adjacency is rejected by putIfFresh.
    if (cache_.enabled()) {
        if (config_.patchCacheOnInsert) {
            cache_.patchMeanRow(src, features_.row(dst), newDegree - 1);
        } else {
            cache_.invalidate(src);
        }
    }

    // Re-derive the auto admission threshold as hubs grow.
    if (config_.thresholdRefreshEvery > 0 &&
        ++insertsSinceRefresh_ >= config_.thresholdRefreshEvery) {
        insertsSinceRefresh_ = 0;
        refreshHotThreshold();
    }

    edgeInserts_.fetch_add(1, std::memory_order_relaxed);
    return result;
}

void
InferenceServer::refreshHotThreshold()
{
    // Explicit thresholds are a user pin; only auto mode tracks hub
    // growth. Degrees only grow under insert-only churn, so the
    // re-derived threshold is clamped monotone — a transiently lower
    // estimate must not widen the admissible set beyond capacity.
    if (config_.hotCacheMinDegree != 0 || !cache_.enabled() ||
        overlay_ == nullptr)
        return;
    const EdgeId fresh =
        autoHotThreshold(*overlay_, config_, degreeScratch_);
    const EdgeId current = hotDegreeThreshold();
    if (fresh > current) {
        hotDegreeThreshold_.store(fresh, std::memory_order_relaxed);
        cache_.setMinDegree(fresh);
    }
}

void
InferenceServer::requestCompaction()
{
    if (overlay_ == nullptr)
        return;
    compactionRequested_.store(true, std::memory_order_release);
    // An idle consumer is blocked in popBatch; release it so it sees
    // the request without waiting for the next read.
    queue_.wake();
}

void
InferenceServer::compactNow()
{
    if (overlay_ == nullptr)
        return;
    compactOverlay();
}

void
InferenceServer::compactOverlay()
{
    MutexLock compacting(compactMutex_);
    if (overlay_->deltaEdges() == 0)
        return;
    // The expensive merge holds neither the update nor the oracle
    // mutex: insertEdge() and the oracle keep running, and the
    // snapshot holds a published prefix of every row.
    CsrGraph snapshot = [&] {
        GRAPHITE_TRACE_SPAN("overlay.compact_build");
        return overlay_->compacted();
    }();
    MutexLock update(updateMutex_);
    MutexLock oracle(oracleMutex_);
    GRAPHITE_TRACE_SPAN("overlay.compact_install");
    const std::uint64_t begin = monotonicNanos();
    overlay_->installCompacted(std::move(snapshot));
    // Rows cached before the install were gathered in base-then-delta
    // order; the new base gathers in sorted merged order. Flush so
    // cache-on serving stays bitwise identical to a fresh hub-exact
    // gather (HotVertexCache::clear doc).
    cache_.clear();
    compactions_.fetch_add(1, std::memory_order_relaxed);
    auto &metrics = obs::MetricsRegistry::global();
    static obs::Counter &compactionCounter =
        metrics.counter("serve.compactions");
    static obs::Histogram &installHist =
        metrics.histogram("serve.compact_install_us");
    compactionCounter.increment();
    installHist.observe((monotonicNanos() - begin) / 1000);
}

GraphStats
InferenceServer::liveGraphStats() const
{
    MutexLock lock(updateMutex_);
    return liveStats_.current();
}

ServeStats
InferenceServer::stats() const
{
    ServeStats s;
    s.requestsServed = requestsServed_.load(std::memory_order_acquire);
    s.batchesServed = batchesServed_.load(std::memory_order_relaxed);
    s.bytesGathered = bytesGathered_.load(std::memory_order_relaxed);
    s.edgeInserts = edgeInserts_.load(std::memory_order_relaxed);
    s.compactions = compactions_.load(std::memory_order_relaxed);
    s.cache = cache_.stats();
    return s;
}

} // namespace graphite::serve
