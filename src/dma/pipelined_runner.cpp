#include "dma/pipelined_runner.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "kernels/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/gemm.h"

namespace graphite::dma {

namespace {

/** Per-thread state: one engine plus the staging arrays it gathers. */
struct ThreadEngine
{
    DmaEngine engine;
    /**
     * Staged per-vertex [v, neighbors...] / [selfFactor, edgeFactors...]
     * arrays. Descriptors hold raw pointers into these until the engine
     * drains, so entries are pooled and only recycled after processAll.
     */
    std::vector<std::vector<std::uint32_t>> indexPool;
    std::vector<std::vector<float>> factorPool;
    std::size_t poolCursor = 0;
    std::vector<std::uint8_t> status;

    explicit ThreadEngine(const EngineConfig &config) : engine(config) {}

    /** Claim one staging slot (reusing drained ones). */
    std::size_t
    claimSlot()
    {
        if (poolCursor == indexPool.size()) {
            indexPool.emplace_back();
            factorPool.emplace_back();
        }
        return poolCursor++;
    }

    /** All queued descriptors executed: staging slots are free again. */
    void
    drain()
    {
        engine.processAll();
        poolCursor = 0;
    }
};

/**
 * Build and execute the (possibly split) descriptors aggregating vertex
 * @p v into aggOut.row(v).
 */
void
issueVertexAggregation(ThreadEngine &te, const CsrGraph &graph,
                       const DenseMatrix &in, const AggregationSpec &spec,
                       VertexId v, DenseMatrix &aggOut,
                       PipelineCounters &counters)
{
    const auto neighbors = graph.neighbors(v);
    const std::size_t n = neighbors.size() + 1;

    const std::size_t slot = te.claimSlot();
    std::vector<std::uint32_t> &indices = te.indexPool[slot];
    std::vector<float> &factors = te.factorPool[slot];
    indices.clear();
    factors.clear();
    indices.reserve(n);
    factors.reserve(n);
    indices.push_back(v);
    factors.push_back(spec.selfFactor(v));
    for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
        // graphite-lint: allow(alloc) pooled staging slots are
        // reserve()d above and recycled across drains; grow-only.
        indices.push_back(graph.colIdx()[e]);
        // graphite-lint: allow(alloc) same pooled slot as above.
        factors.push_back(spec.edgeFactor(e));
    }
    te.status.assign(1, 0);

    const std::size_t f = in.cols();
    const std::size_t bufferFloats =
        te.engine.config().outputBufferBytes / sizeof(float);

    // Split the aggregation when the feature vector exceeds the output
    // buffer (Section 5.2's 400-element example).
    std::size_t issued = 0;
    for (std::size_t offset = 0; offset < f; offset += bufferFloats) {
        const std::size_t chunk = std::min(bufferFloats, f - offset);
        AggregationDescriptor desc;
        desc.redOp = spec.reduce == ReduceOp::Sum ? RedOp::Sum
                                                  : RedOp::Max;
        desc.binOp = BinOp::Multiply;
        desc.idxType = IdxType::U32;
        desc.valType = ValType::F32;
        desc.elementsPerBlock = static_cast<std::uint32_t>(chunk);
        desc.paddedBlockBytes =
            static_cast<std::uint32_t>(in.rowBytes());
        desc.numBlocks = static_cast<std::uint32_t>(n);
        desc.indexAddr =
            reinterpret_cast<std::uint64_t>(indices.data());
        // Shift the input base by the element offset: every gathered
        // block's window moves together because blocks share S.
        desc.inputBase = reinterpret_cast<std::uint64_t>(in.data()) +
                         offset * sizeof(float);
        desc.outputAddr =
            reinterpret_cast<std::uint64_t>(aggOut.row(v) + offset);
        desc.factorAddr =
            reinterpret_cast<std::uint64_t>(factors.data());
        desc.statusAddr =
            reinterpret_cast<std::uint64_t>(te.status.data());
        if (!te.engine.enqueue(desc)) {
            // Queue full: execute the backlog. The staged arrays of the
            // *current* descriptor must survive the drain, so only the
            // engine queue is flushed here (slots recycle at the block
            // boundary in the caller).
            te.engine.processAll();
            const bool ok = te.engine.enqueue(desc);
            // graphite-lint: allow(assert) engine-model invariant on a
            // cold recovery branch, not a per-element bounds check.
            GRAPHITE_ASSERT(ok, "descriptor enqueue failed after drain");
        }
        ++issued;
    }
    counters.descriptors += issued;
    counters.splitDescriptors += issued > 1 ? issued : 0;
    counters.blocksGathered += n * issued;
}

void
updateVertex(const UpdateOp &update, const GemmPlan &weightPlan,
             const DenseMatrix &aggOut, VertexId v, DenseMatrix &out)
{
    gemmBlockSerial(aggOut.row(v), 1, aggOut.rowStride(), weightPlan,
                    out.row(v), out.rowStride(), aggOut.cols());
    finishUpdateBlock(out.row(v), 1, out.rowStride(), out.cols(),
                      update.bias, update.relu);
}

PipelineCounters
runPipeline(const CsrGraph &graph, const DenseMatrix &in,
            const AggregationSpec &spec, const UpdateOp *update,
            DenseMatrix &aggOut, DenseMatrix *out,
            std::span<const VertexId> order, const EngineConfig &engine)
{
    const VertexId numVertices = graph.numVertices();
    GRAPHITE_ASSERT(in.rows() == numVertices, "row mismatch");
    GRAPHITE_ASSERT(aggOut.rows() == numVertices &&
                        aggOut.cols() == in.cols(),
                    "aggOut shape mismatch");
    GRAPHITE_ASSERT(order.empty() || order.size() == numVertices,
                    "order size mismatch");
    if (const char *error = validateSpec(spec, graph))
        panic("DMA pipeline: %s", error);

    const std::size_t numThreads = ThreadPool::global().numThreads();
    std::vector<ThreadEngine> engines;
    engines.reserve(numThreads);
    for (std::size_t t = 0; t < numThreads; ++t)
        // graphite-lint: allow(alloc) per-invocation engine setup,
        // reserve()d above and outside the pipelined block loop.
        engines.emplace_back(engine);
    std::vector<PipelineCounters> counters(numThreads);

    // Per-vertex updates all multiply the same W: pack it once for the
    // whole pipeline run (Algorithm 5's update side), unless the caller
    // already holds a cached plan.
    GemmPlan localPlan;
    const GemmPlan *weightPlan = nullptr;
    if (update) {
        weightPlan = update->packedWeights;
        if (weightPlan == nullptr) {
            localPlan.pack(GemmMode::NN, *update->weights);
            weightPlan = &localPlan;
        }
        if (const char *error = weightPlan->validateFor(
                update->weights->rows(), update->weights->cols()))
            panic("DMA pipeline weight plan: %s", error);
    }

    // Per-thread ping-pong state: the previously issued block whose
    // update is still owed (Algorithm 5's Q'/R bookkeeping). Current
    // and pending buffers swap instead of reallocating so the block
    // loop stays allocation-free after the first iteration.
    std::vector<std::vector<VertexId>> pendingBlock(numThreads);
    std::vector<std::vector<VertexId>> currentBlock(numThreads);

    GRAPHITE_TRACE_SPAN("dma.pipeline");
    parallelFor(0, numVertices, kFusedBlockSize * kFusedBlocksPerTask,
                [&](std::size_t begin, std::size_t end, std::size_t tid) {
        GRAPHITE_TRACE_SPAN("dma.block");
        ThreadEngine &te = engines[tid];
        for (std::size_t j = begin; j < end; j += kFusedBlockSize) {
            const std::size_t blockEnd = std::min(j + kFusedBlockSize, end);
            // Build and issue this block's descriptors (lines 5-7).
            std::vector<VertexId> &block = currentBlock[tid];
            block.clear();
            // graphite-lint: allow(alloc) grow-only reserve on a
            // persistent per-thread buffer; no-op after warm-up.
            block.reserve(blockEnd - j);
            for (std::size_t i = j; i < blockEnd; ++i) {
                const VertexId v = order.empty()
                    ? static_cast<VertexId>(i) : order[i];
                // graphite-lint: allow(alloc) grow-only after the
                // reserve above; buffer persists across blocks.
                block.push_back(v);
                issueVertexAggregation(te, graph, in, spec, v, aggOut,
                                       counters[tid]);
            }
            // Wait for the previous batch (lines 8-10: the functional
            // engine completes on drain) and update it (11-13).
            te.drain();
            if (update && out) {
                for (VertexId v : pendingBlock[tid])
                    updateVertex(*update, *weightPlan, aggOut, v, *out);
            }
            std::swap(pendingBlock[tid], block);
        }
    });

    // Trailing updates (Algorithm 5 lines 15-20).
    for (std::size_t t = 0; t < numThreads; ++t) {
        engines[t].drain();
        if (update && out) {
            for (VertexId v : pendingBlock[t])
                updateVertex(*update, *weightPlan, aggOut, v, *out);
        }
    }

    PipelineCounters total;
    for (const auto &c : counters) {
        total.descriptors += c.descriptors;
        total.splitDescriptors += c.splitDescriptors;
        total.blocksGathered += c.blocksGathered;
    }

    // Mirror the run's totals into the metrics registry so DMA traffic
    // shows up next to the kernel counters on scrape.
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) {
        static obs::Counter &descriptors =
            metrics.counter("dma.descriptors");
        static obs::Counter &splitDescriptors =
            metrics.counter("dma.split_descriptors");
        static obs::Counter &blocksGathered =
            metrics.counter("dma.blocks_gathered");
        static obs::Counter &bytesGathered =
            metrics.counter("dma.bytes_gathered");
        descriptors.add(total.descriptors);
        splitDescriptors.add(total.splitDescriptors);
        blocksGathered.add(total.blocksGathered);
        bytesGathered.add(total.blocksGathered * in.rowBytes());
    }
    return total;
}

} // namespace

PipelineCounters
pipelinedDmaLayer(const CsrGraph &graph, const DenseMatrix &in,
                  const AggregationSpec &spec, const UpdateOp &update,
                  DenseMatrix &aggOut, DenseMatrix &out,
                  std::span<const VertexId> order,
                  const EngineConfig &engine)
{
    GRAPHITE_ASSERT(update.weights != nullptr, "update weights required");
    return runPipeline(graph, in, spec, &update, aggOut, &out, order,
                       engine);
}

PipelineCounters
dmaAggregate(const CsrGraph &graph, const DenseMatrix &in,
             const AggregationSpec &spec, DenseMatrix &out,
             std::span<const VertexId> order, const EngineConfig &engine)
{
    return runPipeline(graph, in, spec, nullptr, out, nullptr, order,
                       engine);
}

} // namespace graphite::dma
