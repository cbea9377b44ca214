#include "baselines/baseline_layers.h"

#include "common/assert.h"
#include "parallel/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"
#include "tensor/spmm.h"

namespace graphite {

void
distgnnAggregate(const CsrGraph &graph, const DenseMatrix &in,
                 DenseMatrix &out, const AggregationSpec &spec)
{
    const VertexId n = graph.numVertices();
    GRAPHITE_ASSERT(in.rows() == n && out.rows() == n,
                    "feature row count mismatch");
    const std::size_t f = in.cols();
    // Large static-ish chunks, no prefetch: the unoptimised reference
    // shape of a vertex-parallel aggregation.
    parallelFor(0, n, 512,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t vi = begin; vi < end; ++vi) {
            const auto v = static_cast<VertexId>(vi);
            Feature *dst = out.row(v);
            const Feature *self = in.row(v);
            const Feature sw = spec.selfFactor(v);
            #pragma omp simd
            for (std::size_t c = 0; c < f; ++c)
                dst[c] = sw * self[c];
            for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
                const Feature *src = in.row(graph.colIdx()[e]);
                const Feature ew = spec.edgeFactor(e);
                #pragma omp simd
                for (std::size_t c = 0; c < f; ++c)
                    dst[c] += ew * src[c];
            }
        }
    });
}

namespace {

void
finishUpdate(const UpdateOp &update, DenseMatrix &aggOut, DenseMatrix &out)
{
    GRAPHITE_ASSERT(!update.dropout.on(), "baseline layers have no dropout");
    // An epoch-cached weight plan (GnnLayer's) skips the per-call pack;
    // otherwise gemm packs internally for this call only.
    if (update.packedWeights)
        gemm(GemmMode::NN, aggOut, *update.packedWeights, out);
    else
        gemm(GemmMode::NN, aggOut, *update.weights, out);
    finishRows(out, update.bias, update.relu, {});
}

} // namespace

void
distgnnLayer(const CsrGraph &graph, const DenseMatrix &in,
             const AggregationSpec &spec, const UpdateOp &update,
             DenseMatrix &aggOut, DenseMatrix &out)
{
    GRAPHITE_ASSERT(update.weights != nullptr, "update weights required");
    distgnnAggregate(graph, in, aggOut, spec);
    finishUpdate(update, aggOut, out);
}

void
mklLayer(const CsrGraph &graph, const DenseMatrix &in,
         const AggregationSpec &spec, const UpdateOp &update,
         DenseMatrix &aggOut, DenseMatrix &out)
{
    GRAPHITE_ASSERT(update.weights != nullptr, "update weights required");
    spmm(graph, in, aggOut, spec.edgeFactors, spec.selfFactors);
    finishUpdate(update, aggOut, out);
}

} // namespace graphite
