#include "kernels/fused_layer.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "kernels/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm.h"

namespace graphite {

namespace {

/**
 * The fused driver, forward (aggregate→GEMM) and backward (where the
 * commuted form restores the same shape; see fusedLayerBackward): per
 * block of the schedule's tasks, @p rows fills the cache-resident
 * aggregation block, @p weightPlan (shared read-only by every task's
 * micro-kernel; null for the identity update) multiplies it, @p update's
 * bias, ReLU and dropout finish it, its chained next-layer plan (or
 * null) multiplies the finished block, and the result is written to
 * @p out and the optional @p extra outputs.
 */
template <typename Rows>
void
fusedRows(const CsrGraph &graph, const Rows &rows,
          const GemmPlan *weightPlan, const UpdateOp &update,
          DenseMatrix &out, const FusedOutputs &extra,
          const Schedule &schedule)
{
    const GemmPlan *then = update.then;
    const std::size_t inCols = rows.in.cols();
    const std::size_t updCols = weightPlan ? weightPlan->n() : inCols;
    if (weightPlan) {
        if (const char *error = weightPlan->validateFor(inCols, updCols))
            panic("fused layer weight plan: %s", error);
    }
    if (then) {
        if (const char *error = then->validateFor(updCols, out.cols()))
            panic("fused layer chained plan: %s", error);
    }
    GRAPHITE_ASSERT(out.cols() == (then ? then->n() : updCols),
                    "out width mismatch");
    GRAPHITE_ASSERT(out.rows() == graph.numVertices(), "out row mismatch");
    GRAPHITE_ASSERT(extra.agg == nullptr ||
                        (extra.agg->rows() == out.rows() &&
                         extra.agg->cols() == inCols),
                    "aggOut shape mismatch");

    // Padded strides of the block-local buffers match the matrices so
    // rows can be memcpy'd wholesale.
    const std::size_t aggStride = rows.width();
    const std::size_t updStride =
        (updCols + kFloatsPerLine - 1) / kFloatsPerLine * kFloatsPerLine;
    const std::size_t outStride = out.rowStride();
    GRAPHITE_ASSERT(weightPlan != nullptr || aggStride == updStride,
                    "identity update: gathered and finished rows differ");
    const std::span<const VertexId> order = visitOrder(schedule);

    // Per-task accounting (paper Fig. 13's per-phase byte/FLOP story):
    // rows gathered feed the bytes counter, aggregation + micro-GEMM
    // FLOPs feed the other. Near-no-op when the registry is disabled.
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    static obs::Counter &bytesGathered =
        metrics.counter("fused.bytes_gathered");
    static obs::Counter &shardBytes =
        metrics.counter("partition.bytes_gathered");
    static obs::Counter &flops = metrics.counter("fused.flops");
    static obs::Histogram &blockMicros =
        metrics.histogram("fused.block_us");
    const std::uint64_t gemmFlopsPerRow =
        2 * ((weightPlan ? inCols * updCols : 0) +
             (then ? updCols * out.cols() : 0));

    const auto reserveScratch = [&] {
        blockScratch<0>(kFusedBlockSize * aggStride);
        blockScratch<1>(kFusedBlockSize * updStride);
        blockScratch<2>(kFusedBlockSize * outStride);
        reserveGemmScratch();
    };
    forEachTask(schedule, graph.numVertices(),
                kFusedBlockSize * kFusedBlocksPerTask, "fused.block",
                [&](std::size_t begin, std::size_t end) {
        const bool metricsOn = metrics.enabled();
        const obs::TraceNs taskStart =
            metricsOn ? obs::TraceRecorder::now() : 0;
        Feature *agg = blockScratch<0>(kFusedBlockSize * aggStride);
        Feature *upd = weightPlan
            ? blockScratch<1>(kFusedBlockSize * updStride) : agg;
        Feature *res = then
            ? blockScratch<2>(kFusedBlockSize * outStride) : upd;
        for (std::size_t j = begin; j < end; j += kFusedBlockSize) {
            const std::size_t blockRows =
                std::min(j + kFusedBlockSize, end) - j;
            // Aggregation phase of the block (Algorithm 2 lines 3-7).
            for (std::size_t m = 0; m < blockRows; ++m) {
                const std::size_t i = j + m;
                const VertexId v = vertexAt(order, i);
                rows.aggregate(v, agg + m * aggStride);
                // Training keeps the whole a^k for back-propagation
                // (Figure 5b): write the row out, indexed by vertex.
                if (extra.agg) {
                    std::memcpy(extra.agg->row(v), agg + m * aggStride,
                                aggStride * sizeof(Feature));
                }
                if (i + kPrefetchDistance < end)
                    rows.prefetch(vertexAt(order, i + kPrefetchDistance));
            }
            // Update phase of the block (Algorithm 2 lines 8-10).
            if (weightPlan) {
                gemmBlockSerial(agg, blockRows, aggStride, *weightPlan, upd,
                                updStride, inCols);
            }
            finishUpdateBlock(upd, blockRows, updStride, updCols,
                              update.bias, update.relu);
            if (update.dropout.on()) {
                for (std::size_t m = 0; m < blockRows; ++m) {
                    dropoutRow(upd + m * updStride, updCols,
                               vertexAt(order, j + m), update.dropout);
                }
            }
            if (then) {
                gemmBlockSerial(upd, blockRows, updStride, *then, res,
                                outStride, updCols);
            }
            for (std::size_t m = 0; m < blockRows; ++m) {
                const VertexId v = vertexAt(order, j + m);
                const Feature *row = res + m * outStride;
                std::memcpy(out.row(v), row, outStride * sizeof(Feature));
                if (extra.compressed)
                    extra.compressed->compressRowFrom(v, row);
                if (extra.bf16)
                    convertRowToBf16(row, extra.bf16->cols(),
                                     extra.bf16->row(v));
            }
        }
        if (metricsOn) {
            const std::uint64_t pulled =
                rowsGathered(graph, order, begin, end);
            bytesGathered.add(pulled * rows.rowBytes());
            if (schedule.plan != nullptr)
                shardBytes.add(pulled * rows.rowBytes());
            // Aggregation multiply-adds plus the per-block micro-GEMMs.
            flops.add(2 * pulled * inCols + (end - begin) * gemmFlopsPerRow);
            blockMicros.observe(
                (obs::TraceRecorder::now() - taskStart) / 1000);
        }
    }, reserveScratch);
}

} // namespace

void
fusedLayer(const CsrGraph &graph, FeatureRows in, const AggregationSpec &spec,
           const UpdateOp &update, DenseMatrix &out,
           const FusedOutputs &extra, const Schedule &schedule)
{
    GRAPHITE_TRACE_SPAN("fused.forward");
    // The same packed operand multiplies every vertex block: the
    // caller's cached plan (weight shapes are checked against the layer
    // widths by the driver's validateFor), else one local pack of W.
    // Null weights select the identity update.
    GemmPlan localPlan;
    const GemmPlan *plan = update.packedWeights;
    if (update.weights != nullptr && plan == nullptr) {
        localPlan.pack(GemmMode::NN, *update.weights, update.precision);
        plan = &localPlan;
    }
    GRAPHITE_ASSERT(plan == nullptr || plan->precision() == update.precision,
                    "cached weight plan precision mismatch");
    const auto fitsOut = [&](const auto *side) {
        return !side || (side->rows() == out.rows() &&
                         side->cols() == out.cols());
    };
    GRAPHITE_ASSERT(fitsOut(extra.compressed) && fitsOut(extra.bf16),
                    "outCompressed/outBf16 shape mismatch");
    GRAPHITE_ASSERT(update.then == nullptr ||
                        (extra.compressed == nullptr && extra.bf16 == nullptr),
                    "a chained projection has no compressed/bf16 copy");
    withRowSource(graph, in, spec, schedule, "fusedLayer",
                  [&](const auto &rows) {
        fusedRows(graph, rows, plan, update, out, extra, schedule);
    });
}

void
fusedLayerInference(const CsrGraph &graph, const DenseMatrix &in,
                    const AggregationSpec &spec, const UpdateOp &update,
                    DenseMatrix &out, std::span<const VertexId> order,
                    Bf16Matrix *outBf16)
{
    fusedLayer(graph, in, spec, update, out, {.bf16 = outBf16}, order);
}

void
fusedLayerBackward(const CsrGraph &transposed, FeatureRows dz,
                   const AggregationSpec &transposedSpec,
                   const GemmPlan &weightsNT, DenseMatrix &gradIn,
                   const Schedule &schedule)
{
    GRAPHITE_TRACE_SPAN("fused.backward");
    withRowSource(transposed, dz, transposedSpec, schedule,
                  "fusedLayerBackward", [&](const auto &rows) {
        fusedRows(transposed, rows, &weightsNT, {.relu = false}, gradIn, {},
                  schedule);
    });
}

void
unfusedLayer(const CsrGraph &graph, FeatureRows in,
             const AggregationSpec &spec, const UpdateOp &update,
             DenseMatrix &aggOut, DenseMatrix &out,
             const Schedule &schedule)
{
    aggregate(graph, in, aggOut, spec, schedule);
    unfusedUpdate(aggOut, update, out);
}

void
unfusedUpdate(const DenseMatrix &agg, const UpdateOp &update,
              DenseMatrix &out)
{
    GRAPHITE_ASSERT(update.weights != nullptr, "update weights required");
    GRAPHITE_ASSERT(update.then == nullptr,
                    "the unfused layer has no chained projection");
    if (update.packedWeights)
        gemm(GemmMode::NN, agg, *update.packedWeights, out);
    else
        gemm(GemmMode::NN, agg, *update.weights, out);
    finishRows(out, update.bias, update.relu, update.dropout);
}

} // namespace graphite
