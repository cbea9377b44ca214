#include "serve/server.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "kernels/mean_gather.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace graphite::serve {

namespace {

/** Hot-cache shard count; each shard has its own lock. */
constexpr std::size_t kHotCacheShards = 8;

/**
 * The hub admission threshold of ServeConfig::hotCacheMinDegree: a
 * positive pin as given, else 0 with the cache off, else the
 * churn-free degree, never at or below the largest fanout (a vertex
 * that small already gathers its whole row when sampled).
 */
template <GraphView G>
EdgeId
resolveHotThreshold(const G &graph, const ServeConfig &config)
{
    if (config.hotCacheMinDegree > 0)
        return config.hotCacheMinDegree;
    if (config.hotCacheCapacity == 0)
        return 0;
    EdgeId maxFanout = 0;
    for (const VertexId f : config.fanouts)
        maxFanout = std::max<EdgeId>(maxFanout, f);
    return std::max(churnFreeDegreeThreshold(graph, config.hotCacheCapacity),
                    maxFanout + 1);
}

/** Width of the rows the hot cache holds: layer 0's outputs. */
std::size_t
cachedRowWidth(const std::vector<GnnLayer *> &layers)
{
    GRAPHITE_ASSERT(!layers.empty(), "serving needs at least one layer");
    return layers.front()->outFeatures();
}

/** A missed hub's finished layer-0 row, to be cached. */
struct PendingFill
{
    VertexId vertex;
    /** out[0] row holding h1(vertex) once the layer-0 GEMM has run. */
    std::size_t row;
    /** Shard fill epoch read before the gather (stale-fill protocol). */
    std::uint64_t epoch;
};

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
    /**
     * out[0] row holding layer-0 destination g: GEMM rows fill out[0]
     * from the top, cache hits from the bottom.
     */
    std::vector<std::size_t> row0;
    /** Cache fills of the batch, installed after the layer-0 GEMM. */
    std::vector<PendingFill> fills;
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
      cache_(config_.hotCacheCapacity, kHotCacheShards,
             cachedRowWidth(layers_))
{
    GRAPHITE_ASSERT(layers_.size() == config_.fanouts.size(),
                    "one fanout per layer, innermost first");
    GRAPHITE_ASSERT(layers_.front()->inFeatures() == features_.cols(),
                    "layer 0 input width must match the feature table");
    for (std::size_t k = 0; k + 1 < layers_.size(); ++k) {
        // graphite-lint: allow(assert) cold ctor contract check.
        GRAPHITE_ASSERT(layers_[k]->outFeatures() ==
                            layers_[k + 1]->inFeatures(),
                        "layer stack width mismatch");
    }
    scratch_ = makeScratch(config_.maxBatch);
    oracleScratch_ = makeScratch(1);
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
    scratch->row0.resize(maxBatch * dstBound[0]);
    scratch->fills.resize(maxBatch * dstBound[0]);
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
    static obs::Counter &hitsCounter = metrics.counter("serve.cache.hits");
    static obs::Counter &missesCounter =
        metrics.counter("serve.cache.misses");
    static obs::Counter &gemmRowsCounter =
        metrics.counter("serve.layer0_gemm_rows");
    static obs::Counter &sharedRowsCounter =
        metrics.counter("serve.layer0_shared_rows");

    GRAPHITE_ASSERT(n > 0 && n <= scratch.maxBatch,
                    "forwardBatch: batch size out of range");
    const std::size_t K = config_.fanouts.size();
    const std::span<const VertexId> fanouts(config_.fanouts);
    const bool cacheActive =
        policy == AggPolicy::HubExactCached && cache_.enabled();
    // HubExactCached degrades to the pure sampled estimate when the
    // cache is disabled — serving then stays bitwise identical to the
    // serveOne() replay, the header's determinism contract. Only the
    // explicit oracle policy takes the hub-exact path cache-free.
    const bool hubExact =
        cacheActive || policy == AggPolicy::HubExactUncached;
    // Degrees only grow under churn, so a destination the sampler left
    // unexpanded still takes the hub path below.
    const EdgeId hubDegree = hubExact ? hotDegreeThreshold_ : 0;

    // 1. Sample every request's K-hop tree independently from its id —
    // the batch is block-diagonal, so each tree (and through the
    // row-independent GEMM, each embedding) is a pure function of the
    // request id, whatever else shares the batch.
    for (std::size_t r = 0; r < n; ++r) {
        Rng rng(requestSeed(scratch.batch[r].id));
        sampleTree(graph, scratch.batch[r].vertex, fanouts, rng,
                   scratch.sampler, scratch.trees[r], hubDegree);
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
    // Sampled SAGE-mean of block row i into dst: local source index i
    // is the destination's own row, rowOf maps a local index to its
    // input row.
    const auto gatherSampled = [&](const FlatBlock &block, std::size_t i,
                                   std::size_t cols, Bytes rowBytes,
                                   auto &&rowOf, Feature *dst) {
        const std::span<const VertexId> sampled = block.neighbors(i);
        meanGatherRow(static_cast<VertexId>(i), sampled, rowOf, cols, dst);
        bytes += (1 + sampled.size()) * rowBytes;
    };

    // Layer 0. A cached hub's finished row h1 is copied straight into
    // the next free out[0] row from the bottom. Every other
    // destination, hub misses included, is aggregated into the next
    // agg row from the top, and one GEMM runs over those rows only,
    // into the top of out[0]. row0 maps each destination to its row.
    const GnnLayer &layer0 = *layers_.front();
    const std::size_t *off0 = scratch.dstOffset.data();
    const std::size_t totalDst0 = off0[n];
    DenseMatrix &out0 = scratch.out[0];
    out0.reshape(totalDst0, layer0.outFeatures());
    DenseMatrix &agg0 = scratch.agg[0];
    agg0.reshape(totalDst0, layer0.inFeatures());
    const Bytes featureRowBytes = features_.rowBytes();
    std::size_t dense = 0;
    std::size_t hits = 0;
    std::size_t shared = 0;
    std::size_t numFills = 0;
    for (std::size_t r = 0; r < n; ++r) {
        const FlatBlock &block = scratch.trees[r].blocks[0];
        for (std::size_t i = 0; i < block.dstVertices.size(); ++i) {
            const std::size_t g = off0[r] + i;
            const VertexId v = block.dstVertices[i];
            Feature *dstRow = agg0.row(dense);
            const EdgeId deg = hubExact ? graph.degree(v) : 0;
            if (hubExact && deg >= hubDegree) {
                if (cacheActive) {
                    const std::size_t hitRow = totalDst0 - 1 - hits;
                    if (cache_.lookup(v, out0.row(hitRow))) {
                        // Hub hit: one row copy, no gather, no GEMM.
                        scratch.row0[g] = hitRow;
                        ++hits;
                        bytes += out0.rowBytes();
                        continue;
                    }
                    // A hub that already missed in this batch shares
                    // that miss's row: one gather and one GEMM row. It
                    // counts one row read, as a hit would, so the bytes
                    // do not depend on how requests were batched.
                    const auto fillsEnd = scratch.fills.begin() + numFills;
                    const auto first = std::find_if(
                        scratch.fills.begin(), fillsEnd,
                        [v](const PendingFill &f) { return f.vertex == v; });
                    if (first != fillsEnd) {
                        scratch.row0[g] = first->row;
                        ++shared;
                        bytes += out0.rowBytes();
                        continue;
                    }
                    // Stale-fill protocol: snapshot the shard fill
                    // epoch *before* gathering; a concurrent edge
                    // insert on this shard bumps it, and putIfFresh
                    // then discards this row rather than installing
                    // pre-insert adjacency.
                    scratch.fills[numFills++] = {v, dense,
                                                 cache_.fillEpoch(v)};
                }
                fullMeanRow(graph, features_, v, dstRow);
                bytes += (deg + 1) * featureRowBytes;
            } else {
                gatherSampled(block, i, layer0.inFeatures(),
                              featureRowBytes,
                              [&](VertexId j) {
                                  return features_.row(
                                      block.srcVertices[j]);
                              },
                              dstRow);
            }
            scratch.row0[g] = dense++;
        }
    }
    layer0.updateRows(agg0, dense, out0, config_.precision);
    // Fills go in only now that their rows hold h1; the epoch read
    // before the gather still fences a concurrent insert.
    for (std::size_t f = 0; f < numFills; ++f) {
        const PendingFill &fill = scratch.fills[f];
        cache_.putIfFresh(fill.vertex, out0.row(fill.row), fill.epoch);
    }

    // Layers >= 1 aggregate the previous layer's rows of the request;
    // layer 1 finds them through row0.
    for (std::size_t k = 1; k < K; ++k) {
        const GnnLayer &layer = *layers_[k];
        const std::size_t inF = layer.inFeatures();
        const std::size_t *off =
            scratch.dstOffset.data() + k * (scratch.maxBatch + 1);
        const std::size_t *prevOff =
            scratch.dstOffset.data() + (k - 1) * (scratch.maxBatch + 1);
        const std::size_t totalDst = off[n];
        DenseMatrix &agg = scratch.agg[k];
        agg.reshape(totalDst, inF);
        DenseMatrix &outM = scratch.out[k];
        outM.reshape(totalDst, layer.outFeatures());
        const DenseMatrix &src = scratch.out[k - 1];

        for (std::size_t r = 0; r < n; ++r) {
            const FlatBlock &block = scratch.trees[r].blocks[k];
            const std::size_t srcBase = prevOff[r];
            for (std::size_t i = 0; i < block.dstVertices.size(); ++i) {
                gatherSampled(
                    block, i, inF, src.rowBytes(),
                    [&](VertexId j) {
                        const std::size_t at = srcBase + j;
                        return src.row(k == 1 ? scratch.row0[at] : at);
                    },
                    agg.row(off[r] + i));
            }
        }

        layer.updateRows(agg, totalDst, outM, config_.precision);
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
        // A one-layer stack's outputs are layer 0's, found through row0.
        const Feature *embedding = finalOut.row(
            K == 1 ? scratch.row0[finalOff[r]] : finalOff[r]);
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
    hitsCounter.add(hits);
    missesCounter.add(numFills + shared);
    gemmRowsCounter.add(dense);
    sharedRowsCounter.add(shared);
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

    // Cache coherence: src's cached row now misses the new neighbor.
    // Dropping it bumps the shard fill epoch, so any in-flight fill
    // gathered from pre-insert adjacency is rejected by putIfFresh.
    cache_.invalidate(src);
    edgeInserts_.fetch_add(1, std::memory_order_relaxed);
    return result;
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
