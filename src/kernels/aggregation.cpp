#include "kernels/aggregation.h"

#include <array>
#include <cmath>
#include <utility>

#include "common/assert.h"
#include "kernels/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace graphite {

AggregationSpec
gcnSpec(const CsrGraph &graph)
{
    const VertexId n = graph.numVertices();
    AggregationSpec spec;
    spec.selfFactors.resize(n);
    spec.edgeFactors.resize(graph.numEdges());
    std::vector<Feature> invSqrt(n);
    for (VertexId v = 0; v < n; ++v) {
        invSqrt[v] = 1.0f / std::sqrt(static_cast<Feature>(
            graph.degree(v) + 1));
    }
    for (VertexId v = 0; v < n; ++v) {
        spec.selfFactors[v] = invSqrt[v] * invSqrt[v];
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e)
            spec.edgeFactors[e] = invSqrt[v] * invSqrt[graph.colIdx()[e]];
    }
    return spec;
}

AggregationSpec
sageSpec(const CsrGraph &graph)
{
    const VertexId n = graph.numVertices();
    AggregationSpec spec;
    spec.selfFactors.resize(n);
    spec.edgeFactors.resize(graph.numEdges());
    for (VertexId v = 0; v < n; ++v) {
        const Feature mean = 1.0f / static_cast<Feature>(
            graph.degree(v) + 1);
        spec.selfFactors[v] = mean;
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e)
            spec.edgeFactors[e] = mean;
    }
    return spec;
}

AggregationSpec
ginSpec(const CsrGraph &graph, Feature epsilon)
{
    AggregationSpec spec;
    spec.selfFactors.assign(graph.numVertices(), 1.0f + epsilon);
    return spec;
}

AggregationSpec
sumSpec()
{
    return {};
}

const char *
validateSpec(const AggregationSpec &spec, const CsrGraph &graph)
{
    if (!spec.edgeFactors.empty() &&
        spec.edgeFactors.size() != graph.numEdges())
        return "edge-factor array length must equal |E|";
    if (!spec.selfFactors.empty() &&
        spec.selfFactors.size() != graph.numVertices())
        return "self-factor array length must equal |V|";
    return nullptr;
}

#if GRAPHITE_AGG_AVX512

namespace {

/**
 * Register-resident aggregation for feature vectors of Groups x 16
 * floats: the accumulator a_v lives entirely in zmm registers across all
 * neighbours, exactly what the paper's JIT-specialised kernels achieve
 * with layer-constant code generation. The width is a template
 * parameter so each one gets its own straight-line kernel, like
 * per-layer JIT output.
 */
template <int Groups>
void
aggregateVertexZmm(const CsrGraph &graph, const DenseMatrix &in, VertexId v,
                   const AggregationSpec &spec, Feature *dst)
{
    __m512 acc[Groups];
    const Feature *self = in.row(v);
    const __m512 selfFactor = _mm512_set1_ps(spec.selfFactor(v));
    for (int g = 0; g < Groups; ++g)
        acc[g] = _mm512_mul_ps(_mm512_loadu_ps(self + g * 16), selfFactor);
    const EdgeId rowEnd = graph.rowEnd(v);
    for (EdgeId e = graph.rowBegin(v); e < rowEnd; ++e) {
        const Feature *src = in.row(graph.colIdx()[e]);
        const __m512 factor = _mm512_set1_ps(spec.edgeFactor(e));
        for (int g = 0; g < Groups; ++g) {
            acc[g] = _mm512_fmadd_ps(_mm512_loadu_ps(src + g * 16), factor,
                                     acc[g]);
        }
    }
    for (int g = 0; g < Groups; ++g)
        _mm512_storeu_ps(dst + g * 16, acc[g]);
}

using VertexKernel = void (*)(const CsrGraph &, const DenseMatrix &,
                              VertexId, const AggregationSpec &, Feature *);

/** Kernel table indexed by Groups - 1; the JIT-dispatch analogue. */
template <int... G>
constexpr std::array<VertexKernel, sizeof...(G)>
zmmKernels(std::integer_sequence<int, G...>)
{
    return {aggregateVertexZmm<G + 1>...};
}

constexpr std::size_t kMaxZmmGroups = 16;
constexpr auto kZmmKernels =
    zmmKernels(std::make_integer_sequence<int, kMaxZmmGroups>());

} // namespace

#endif // GRAPHITE_AGG_AVX512

void
aggregateVertex(const CsrGraph &graph, const DenseMatrix &in, VertexId v,
                const AggregationSpec &spec, Feature *dst)
{
#if GRAPHITE_AGG_AVX512
    const std::size_t stride = in.rowStride();
    const std::size_t groups = stride / 16;
    if (groups >= 1 && groups <= kMaxZmmGroups && stride % 16 == 0) {
        kZmmKernels[groups - 1](graph, in, v, spec, dst);
        return;
    }
#endif
    // Generic (any width) scalar-vectorisable fallback.
    foldVertex(DenseRows{graph, in, spec}, v, dst);
}

namespace {

/**
 * The aggregate driver's gather accounting, in one place for every
 * source and schedule: @p rows gathered rows of @p rowBytes stored
 * bytes each feed agg.bytes_gathered — and, under a sharded schedule,
 * partition.bytes_gathered — and as many row folds of @p cols
 * multiply-adds feed agg.flops.
 */
void
countGather(std::uint64_t rows, std::uint64_t rowBytes, std::size_t cols,
            bool sharded)
{
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    static obs::Counter &bytes = metrics.counter("agg.bytes_gathered");
    static obs::Counter &flops = metrics.counter("agg.flops");
    static obs::Counter &shardBytes =
        metrics.counter("partition.bytes_gathered");
    bytes.add(rows * rowBytes);
    flops.add(2 * rows * cols);
    if (sharded)
        shardBytes.add(rows * rowBytes);
}

/**
 * The aggregate driver: Algorithm 1 over @p schedule with rows read
 * through @p rows. Gather accounting happens here, once per task, for
 * every source and schedule.
 */
template <typename Rows>
void
aggregateRows(const CsrGraph &graph, const Rows &rows, DenseMatrix &out,
              const Schedule &schedule)
{
    GRAPHITE_TRACE_SPAN(schedule.plan != nullptr ? "agg.sharded"
                                                 : Rows::kAggSpan);
    GRAPHITE_ASSERT(out.rows() == graph.numVertices() &&
                        out.cols() == rows.in.cols(),
                    "out shape mismatch");
    const std::span<const VertexId> order = visitOrder(schedule);

    forEachTask(schedule, graph.numVertices(), kAggTaskVertices, "agg.block",
                [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const VertexId v = vertexAt(order, i);
            rows.aggregate(v, out.row(v));
            if (i + kPrefetchDistance < end)
                rows.prefetch(vertexAt(order, i + kPrefetchDistance));
        }
        if (obs::MetricsRegistry::global().enabled()) {
            countGather(rowsGathered(graph, order, begin, end),
                        rows.rowBytes(), rows.in.cols(),
                        schedule.plan != nullptr);
        }
    });
}

} // namespace

void
aggregate(const CsrGraph &graph, FeatureRows in, DenseMatrix &out,
          const AggregationSpec &spec, const Schedule &schedule)
{
    withRowSource(graph, in, spec, schedule, "aggregate",
                  [&](const auto &rows) {
        aggregateRows(graph, rows, out, schedule);
    });
}

void
aggregateBasic(const CsrGraph &graph, const DenseMatrix &in,
               DenseMatrix &out, const AggregationSpec &spec,
               std::span<const VertexId> order)
{
    aggregate(graph, in, out, spec, order);
}

void
aggregateReference(const CsrGraph &graph, const DenseMatrix &in,
                   DenseMatrix &out, const AggregationSpec &spec)
{
    const VertexId n = graph.numVertices();
    for (VertexId v = 0; v < n; ++v) {
        Feature *dst = out.row(v);
        const Feature *self = in.row(v);
        for (std::size_t c = 0; c < in.cols(); ++c)
            dst[c] = spec.selfFactor(v) * self[c];
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
            const Feature *src = in.row(graph.colIdx()[e]);
            for (std::size_t c = 0; c < in.cols(); ++c)
                dst[c] += spec.edgeFactor(e) * src[c];
        }
    }
}

void
aggregateTransposedPush(const CsrGraph &graph, const DenseMatrix &in,
                        DenseMatrix &out, const AggregationSpec &spec)
{
    if (const char *error = validateSpec(spec, graph))
        panic("aggregateTransposedPush: %s", error);
    const VertexId n = graph.numVertices();
    GRAPHITE_ASSERT(in.rows() == n && out.rows() == n, "row mismatch");
    GRAPHITE_ASSERT(in.cols() == out.cols(), "width mismatch");
    const std::size_t cols = in.cols();
    for (VertexId v = 0; v < n; ++v) {
        Feature *dst = out.row(v);
        const Feature *self = in.row(v);
        for (std::size_t c = 0; c < cols; ++c)
            dst[c] = spec.selfFactor(v) * self[c];
    }
    // Scatter pass: edge (v, u) carries factor(v, u) in the forward
    // direction, so it contributes in[v] to out[u] in the transpose.
    for (VertexId v = 0; v < n; ++v) {
        const Feature *src = in.row(v);
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
            Feature *dst = out.row(graph.colIdx()[e]);
            const Feature factor = spec.edgeFactor(e);
            for (std::size_t c = 0; c < cols; ++c)
                dst[c] += factor * src[c];
        }
    }
}

} // namespace graphite
