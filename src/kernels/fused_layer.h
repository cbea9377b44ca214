/**
 * @file
 * Layer fusion — paper Algorithm 2 and Figure 5.
 *
 * A GNN layer's aggregation is memory-bound and its update (an FC layer)
 * is compute-bound. Running them back-to-back over the whole graph makes
 * the phases alternate between starving the FPUs and starving the memory
 * system, and round-trips the full aggregation matrix a^k through DRAM.
 * The fused kernel instead alternates per *block* of B vertices
 * (kFusedBlockSize, kernels/engine.h):
 * aggregate B vertices into a cache-resident block buffer, immediately
 * update that block, move on. Threads drift out of phase naturally (no
 * barrier), so one core's aggregation overlaps another's update
 * (Figure 4), and in inference a^k is never materialised at all
 * (Figure 5c) — a single reusable buffer per thread suffices.
 */

#pragma once

#include <span>

#include "compress/compressed_matrix.h"
#include "kernels/aggregation.h"
#include "tensor/dense_matrix.h"
#include "tensor/gemm_plan.h"

namespace graphite {

/** The update phase: h = act(W·a + b) (paper Table 2's FC + ReLU). */
struct UpdateOp
{
    /**
     * F_in x F_out weight matrix, or null for the identity update of a
     * layer that projects first (GnnLayer): the rows gathered are
     * already X·W, so each block skips its micro-GEMM and only gets
     * bias and ReLU. Only fusedLayer accepts a null weight matrix.
     */
    const DenseMatrix *weights = nullptr;
    /** Optional bias of length F_out. */
    std::span<const Feature> bias = {};
    /** Apply ReLU after the affine transform. */
    bool relu = true;
    /**
     * Optional NN-mode pack of @c weights (GnnLayer's epoch-cached
     * plan). When null, consumers that need the packed form pack once
     * per layer invocation themselves. A supplied plan must have been
     * packed at @c precision.
     */
    const GemmPlan *packedWeights = nullptr;
    /**
     * Precision of the per-block micro-GEMM: Bf16 rounds the weights
     * (at pack time) and the aggregated block rows (at the A pack) to
     * bf16 and accumulates in fp32.
     */
    Precision precision = Precision::Fp32;
    /**
     * Optional NN-mode plan of the *next* layer's weights, for the
     * inference chain into a layer that projects first: each finished
     * block is multiplied by it while cache-resident, so fusedLayer's
     * out receives h·W_next (|V| x then->n()) and h itself is never
     * stored. Excludes the compressed and bf16 side outputs (those are
     * copies of h).
     */
    const GemmPlan *then = nullptr;
};

/**
 * Optional outputs of the fused forward besides h^k, all written while
 * the block is cache-resident.
 */
struct FusedOutputs
{
    /**
     * Training (Figure 5b): the |V| x F_in a^k backprop needs. Null for
     * inference (Figure 5c): a^k then lives only in a per-thread buffer.
     */
    DenseMatrix *agg = nullptr;
    /** h^k compressed for the next layer's packed gathers. */
    CompressedMatrix *compressed = nullptr;
    /** h^k rounded to bf16 for the next layer's bf16 gathers. */
    Bf16Matrix *bf16 = nullptr;
};

/**
 * Fused aggregation + update (Algorithm 2): per block of B vertices,
 * aggregate the block from @p in's stored form into a cache-resident
 * buffer, then run the update's micro-GEMM at its precision (none for
 * the identity update), bias and ReLU — and the chained projection
 * when update.then is set — straight into @p out (|V| x F_out, or
 * |V| x then->n()). Blocks are carved from @p schedule's tasks (flat
 * or shard-major; not delayed halo). Results are bit-identical across
 * schedules: gemmBlockSerial results do not depend on how rows are
 * grouped into blocks.
 */
void fusedLayer(const CsrGraph &graph, FeatureRows in,
                const AggregationSpec &spec, const UpdateOp &update,
                DenseMatrix &out, const FusedOutputs &extra = {},
                const Schedule &schedule = {});

/** fusedLayer() inference over fp32 rows in a flat order. */
void fusedLayerInference(const CsrGraph &graph, const DenseMatrix &in,
                         const AggregationSpec &spec, const UpdateOp &update,
                         DenseMatrix &out,
                         std::span<const VertexId> order = {},
                         Bf16Matrix *outBf16 = nullptr);

/**
 * Fused backward kernel — Algorithm 2's counterpart for training's
 * second half. The backward of a layer needs dh_prev = Aggᵀ(dz·Wᵀ):
 * naively a full dAgg = dz·Wᵀ matrix is materialised in DRAM and then
 * aggregated over the transposed graph. The fusion direction is
 * reversed relative to the forward (GEMM feeds the aggregation), whose
 * literal blocked form would scatter GEMM output blocks to arbitrary
 * destination rows — parallel scatter needs atomics or striped locks
 * on a CPU (see aggregateTransposedPush, the serial scatter oracle).
 * Instead this kernel exploits that the two operators commute —
 * aggregation is a row-mixing (sparse-left) multiply, the weight GEMM a
 * column-mixing (dense-right) multiply, so Aggᵀ(dz·Wᵀ) = (Aggᵀ dz)·Wᵀ
 * — which restores the forward kernel's pull-shape: the same fused
 * driver, per block of B vertices, aggregates dz rows over the
 * transposed CSR into a cache-resident block buffer, then runs the
 * `·Wᵀ` micro-GEMM (via the prepacked NT @p weightsNT plan,
 * gemmBlockSerial) from that buffer straight into @p gradIn, with no
 * bias or ReLU. The F_out-wide dz block stays L2-resident between the
 * two phases and dAgg is never materialised. dz may be stored in any
 * FeatureRows form (bf16 dz is gathered at half width); gradients
 * accumulate in fp32 throughout.
 *
 * @param transposed     transposed graph.
 * @param dz             dL/d(pre-activation), |V| x F_out.
 * @param transposedSpec factors remapped by transposeSpec(); Sum only.
 * @param weightsNT      W packed in NT mode (K=F_out, N=F_in).
 * @param gradIn         dL/dh_prev output, |V| x F_in.
 * @param schedule       visit order over the transposed graph (a
 *                       sharded schedule needs a plan of it).
 */
void fusedLayerBackward(const CsrGraph &transposed, FeatureRows dz,
                        const AggregationSpec &transposedSpec,
                        const GemmPlan &weightsNT, DenseMatrix &gradIn,
                        const Schedule &schedule = {});

/**
 * Unfused reference layer: aggregation over the full graph into
 * @p aggOut, then a whole-matrix GEMM update. The `basic` configuration
 * of Figure 11, and the unfused path of GnnLayer.
 */
void unfusedLayer(const CsrGraph &graph, FeatureRows in,
                  const AggregationSpec &spec, const UpdateOp &update,
                  DenseMatrix &aggOut, DenseMatrix &out,
                  const Schedule &schedule = {});

} // namespace graphite
