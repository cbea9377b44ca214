/**
 * @file
 * The aggregation engine's policies, shared by the aggregate driver
 * (aggregation.cpp, Algorithm 1) and the fused driver (fused_layer.cpp,
 * Algorithm 2). Both are templated on
 *
 *  - a **RowSource** — how one feature row is read: DenseRows (fp32),
 *    Bf16Rows (widened in registers) or PackedRows (mask-compressed,
 *    expanded on the fly). Each holds graph, matrix `in` and spec and
 *    supplies aggregate(v, dst) (Algorithm 1 for one vertex), prefetch,
 *    rowBytes() (stored bytes per gathered row, for the byte counters)
 *    and accumulate(u, factor, dst), which adds factor times one row
 *    into dst;
 *  - a **Schedule** (kernels/aggregation.h), run by forEachTask().
 *
 * withRowSource() switches on the FeatureRows form once per kernel
 * call, so every (source, driver) pair compiles to its own per-vertex
 * loop: no virtual call or type switch runs per row.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/assert.h"
#include "kernels/aggregation.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/row_ops.h"

#if defined(__AVX512F__)
#define GRAPHITE_AGG_AVX512 1
#include <immintrin.h>
#else
#define GRAPHITE_AGG_AVX512 0
#endif

namespace graphite {

/**
 * The engine's tuning constants, picked once the way the paper picks
 * Algorithm 1/2's (Section 4.1-4.2); the DMA pipeline (Algorithm 5)
 * uses the same block shape. @{
 */
/** Vertices per dynamically scheduled aggregate task (T, Algorithm 1). */
inline constexpr std::size_t kAggTaskVertices = 64;
/** Prefetch distance in vertices (D, Algorithm 1). */
inline constexpr std::size_t kPrefetchDistance = 4;
/**
 * Cache lines prefetched from each upcoming feature row: 2 keeps the
 * L1 fill buffers from saturating.
 */
inline constexpr std::size_t kPrefetchLines = 2;
/** Vertices per fused block (B, Algorithm 2): B rows fit in L2. */
inline constexpr std::size_t kFusedBlockSize = 16;
/** Fused blocks per dynamically scheduled task. */
inline constexpr std::size_t kFusedBlocksPerTask = 4;
/** @} */

/** dst += factor * src over @p width fp32 lanes. */
inline void
combineRow(Feature *dst, const Feature *src, Feature factor,
           std::size_t width)
{
    #pragma omp simd
    for (std::size_t c = 0; c < width; ++c)
        dst[c] += factor * src[c];
}

/**
 * dst[0..f) += factor * bf16row (expanded to fp32). AVX-512 path
 * expands 16 bf16 lanes per step by a 16-bit shift into the float's
 * high half; accumulation is full fp32.
 */
inline void
combineBf16Row(const std::uint16_t *src, std::size_t f, Feature factor,
               Feature *dst)
{
#if GRAPHITE_AGG_AVX512
    if (f % 16 == 0) {
        const __m512 factorVec = _mm512_set1_ps(factor);
        for (std::size_t g = 0; g < f; g += 16) {
            const __m256i raw = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(src + g));
            const __m512 values = _mm512_castsi512_ps(
                _mm512_slli_epi32(_mm512_cvtepu16_epi32(raw), 16));
            _mm512_storeu_ps(dst + g,
                             _mm512_fmadd_ps(values, factorVec,
                                             _mm512_loadu_ps(dst + g)));
        }
        return;
    }
#endif
    for (std::size_t c = 0; c < f; ++c)
        dst[c] += bf16ToFloat(src[c]) * factor;
}

/** RowSource over fp32 rows (the zmm/generic kernels of aggregateVertex). */
struct DenseRows
{
    static constexpr const char *kAggSpan = "agg.basic";
    const CsrGraph &graph;
    const DenseMatrix &in;
    const AggregationSpec &spec;

    std::size_t width() const { return in.rowStride(); }
    std::uint64_t rowBytes() const { return in.rowBytes(); }

    void
    aggregate(VertexId v, Feature *dst) const
    {
        aggregateVertex(graph, in, v, spec, dst);
    }

    /**
     * Prefetch the first kPrefetchLines cache lines of the feature
     * vectors vertex @p v's aggregation will gather (Algorithm 1 lines
     * 8-9).
     */
    void
    prefetch(VertexId v) const
    {
        for (VertexId u : graph.neighbors(v)) {
            const char *base = reinterpret_cast<const char *>(in.row(u));
            for (std::size_t l = 0; l < kPrefetchLines; ++l)
                __builtin_prefetch(base + l * kCacheLineBytes, 0, 3);
        }
    }

    void
    accumulate(VertexId u, Feature factor, Feature *dst) const
    {
        combineRow(dst, in.row(u), factor, width());
    }
};

/**
 * Algorithm 1 for one vertex through @p rows' accumulate. The self
 * term seeds @p dst (accumulating into zeros yields selfFactor * h_v,
 * and expanded zeros clobber nothing), then each neighbour folds in.
 */
template <typename Rows>
void
foldVertex(const Rows &rows, VertexId v, Feature *dst)
{
    std::fill(dst, dst + rows.width(), 0.0f);
    rows.accumulate(v, rows.spec.selfFactor(v), dst);
    for (EdgeId e = rows.graph.rowBegin(v); e < rows.graph.rowEnd(v); ++e)
        rows.accumulate(rows.graph.colIdx()[e], rows.spec.edgeFactor(e), dst);
}

/**
 * RowSource over bf16 rows: each gathered row is widened to fp32 in
 * registers, halving feature traffic at reduced precision (see
 * tensor/bf16_matrix.h). The fp32 @c width is never wider than the
 * bf16 row stride, so over-reading the source padding is safe.
 */
struct Bf16Rows
{
    static constexpr const char *kAggSpan = "agg.bf16";
    const CsrGraph &graph;
    const Bf16Matrix &in;
    const AggregationSpec &spec;
    std::size_t fp32Width;

    std::size_t width() const { return fp32Width; }
    /** 2 bytes per element: the halving bf16 byte counts measure. */
    std::uint64_t rowBytes() const { return in.rowBytes(); }

    void
    aggregate(VertexId v, Feature *dst) const
    {
        foldVertex(*this, v, dst);
    }

    void
    prefetch(VertexId v) const
    {
        for (VertexId u : graph.neighbors(v))
            __builtin_prefetch(in.row(u), 0, 3);
    }

    void
    accumulate(VertexId u, Feature factor, Feature *dst) const
    {
        combineBf16Row(in.row(u), fp32Width, factor, dst);
    }
};

/**
 * RowSource over mask-compressed rows (Section 4.3): each gathered row
 * is expanded on the fly from its packed form.
 */
struct PackedRows
{
    static constexpr const char *kAggSpan = "agg.compressed";
    const CsrGraph &graph;
    const CompressedMatrix &in;
    const AggregationSpec &spec;
    /**
     * Mean stored bytes of one packed row (values + mask): gathered
     * traffic depends on each row's sparsity, so the byte counters use
     * the matrix-wide average.
     */
    std::uint64_t meanRowBytes;

    std::size_t width() const { return in.rowStride(); }
    std::uint64_t rowBytes() const { return meanRowBytes; }

    void
    aggregate(VertexId v, Feature *dst) const
    {
        foldVertex(*this, v, dst);
    }

    void
    prefetch(VertexId v) const
    {
        for (VertexId u : graph.neighbors(v)) {
            __builtin_prefetch(in.values(u), 0, 3);
            __builtin_prefetch(in.mask(u), 0, 3);
        }
    }

    void
    accumulate(VertexId u, Feature factor, Feature *dst) const
    {
        in.accumulateRow(u, factor, dst);
    }
};

/**
 * Build the RowSource for @p in's stored form and call @p fn with it —
 * the once-per-call switch that gives each form its own compiled loop.
 * First the entry checks every driver shares: @p in covers the graph,
 * the spec's factor arrays fit it, and the schedule visits every
 * vertex exactly once (a plan must have been built for @p graph).
 */
template <typename Fn>
void
withRowSource(const CsrGraph &graph, const FeatureRows &in,
              const AggregationSpec &spec, const Schedule &schedule,
              const char *where, Fn &&fn)
{
    const VertexId n = graph.numVertices();
    GRAPHITE_ASSERT(std::visit([](const auto *m) { return m->rows(); },
                               in.matrix) == n,
                    "feature row count mismatch");
    if (const char *error = validateSpec(spec, graph))
        panic("%s: %s", where, error);
    if (schedule.plan != nullptr) {
        if (schedule.plan->graph != &graph)
            panic("%s: partition plan built for another graph", where);
        if (schedule.plan->shardMajorOrder.size() != n)
            panic("%s: plan does not cover the graph", where);
    }
    GRAPHITE_ASSERT(schedule.order.empty() || schedule.order.size() == n,
                    "order must cover all vertices");
    if (const auto *dense = std::get_if<const DenseMatrix *>(&in.matrix)) {
        GRAPHITE_DCHECK(reinterpret_cast<std::uintptr_t>((*dense)->data()) %
                                kFeatureAlignment == 0,
                        "input features must be cache-line aligned");
        fn(DenseRows{graph, **dense, spec});
    } else if (const auto *bf16 =
                   std::get_if<const Bf16Matrix *>(&in.matrix)) {
        const std::size_t cols = (*bf16)->cols();
        fn(Bf16Rows{graph, **bf16, spec,
                    (cols + kFloatsPerLine - 1) / kFloatsPerLine *
                        kFloatsPerLine});
    } else {
        const CompressedMatrix &packed =
            *std::get<const CompressedMatrix *>(in.matrix);
        fn(PackedRows{graph, packed, spec,
                      packed.rows() > 0
                          ? packed.compressedTrafficBytes() / packed.rows()
                          : 0});
    }
}

/** Vertex at position @p i of @p order (identity when empty). */
inline VertexId
vertexAt(std::span<const VertexId> order, std::size_t i)
{
    return order.empty() ? static_cast<VertexId>(i) : order[i];
}

/** The order @p schedule visits vertices in (empty = identity). */
inline std::span<const VertexId>
visitOrder(const Schedule &schedule)
{
    return schedule.plan != nullptr
        ? std::span<const VertexId>(schedule.plan->shardMajorOrder)
        : schedule.order;
}

/**
 * Rows gathered by the vertices at order positions [begin, end): one
 * per neighbour plus the self row. Only walked when the metrics
 * registry is enabled (the aggregation loop itself stays untouched).
 */
inline std::uint64_t
rowsGathered(const CsrGraph &graph, std::span<const VertexId> order,
             std::size_t begin, std::size_t end)
{
    std::uint64_t rows = 0;
    for (std::size_t i = begin; i < end; ++i)
        rows += graph.degree(vertexAt(order, i)) + 1;
    return rows;
}

/**
 * Per-worker grow-only buffer, one per @p Slot (a driver needs up to
 * three live at once). Pool workers persist across layer calls and
 * epochs, so after warm-up these never allocate — part of the
 * allocation-free steady-state contract of the training loop. Drivers
 * size them in the pool's per-worker dispatch prologue, so a worker
 * that draws no task still reaches the steady-state size.
 */
template <int Slot>
Feature *
blockScratch(std::size_t count)
{
    thread_local AlignedBuffer<Feature> buf;
    if (buf.size() < count)
        buf.resize(count);
    return buf.data();
}

/**
 * Run @p task(begin, end) over positions of visitOrder(@p schedule) on
 * the pool, in tasks of at most @p taskVertices. Flat: dynamically
 * scheduled chunks, each under a @p flatSpan trace span. Sharded: every
 * shard's owned run of shardMajorOrder is chunked on its own, so no
 * task spans a shard boundary and the feature slice a worker touches
 * stays within the shard in flight; each task runs under a
 * "partition.shard" span. @p prologue runs once on every worker (see
 * ThreadPool::parallelForChunked).
 */
template <typename TaskFn>
void
forEachTask(const Schedule &schedule, std::size_t numVertices,
            std::size_t taskVertices, const char *flatSpan, TaskFn &&task,
            FunctionRef<void()> prologue = {})
{
    if (schedule.plan == nullptr) {
        parallelFor(0, numVertices, taskVertices,
                    [&](std::size_t begin, std::size_t end, std::size_t) {
            GRAPHITE_TRACE_SPAN(flatSpan);
            task(begin, end);
        }, prologue);
        return;
    }
    const std::vector<std::size_t> &start = schedule.plan->ownedStart;
    const auto chunksOf = [&](std::size_t s) {
        return (start[s + 1] - start[s] + taskVertices - 1) / taskVertices;
    };
    std::size_t numTasks = 0;
    for (std::size_t s = 0; s + 1 < start.size(); ++s)
        numTasks += chunksOf(s);
    parallelFor(0, numTasks, 1,
                [&](std::size_t taskBegin, std::size_t taskEnd,
                    std::size_t) {
        for (std::size_t t = taskBegin; t < taskEnd; ++t) {
            GRAPHITE_TRACE_SPAN("partition.shard");
            // Task t is chunk `first` of shard s (a scan over K shards).
            std::size_t s = 0;
            std::size_t first = t;
            for (; first >= chunksOf(s); ++s)
                first -= chunksOf(s);
            const std::size_t begin = start[s] + first * taskVertices;
            task(begin, std::min(begin + taskVertices, start[s + 1]));
        }
    }, prologue);
}

} // namespace graphite
