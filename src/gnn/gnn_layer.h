/**
 * @file
 * One GNN layer: aggregation (Table 2's AGGREGATE) + FC/ReLU update,
 * with forward paths for every technique combination and a full backward
 * pass for training.
 *
 * A layer runs in one of two directions (DESIGN.md, "Layer direction").
 * Aggregate first, h = ReLU(Agg(h_prev)·W + b), is the paper's order and
 * the oracle. A fused, Sum-reduce, narrowing layer (F_out < F_in)
 * projects first instead, h = ReLU(Agg(h_prev·W) + b): aggregation is
 * linear, so the two agree up to rounding, and the gather reads F_out-
 * wide rows instead of F_in-wide ones.
 *
 * Backward math, aggregate first (a = Agg(h_prev) saved by the forward):
 *   dz      = dh ⊙ ReLU'(h)
 *   dW      = aᵀ · dz          db = colsum(dz)
 *   da      = dz · Wᵀ
 *   dh_prev = Aggᵀ(da)   — aggregation along the transposed graph with
 *                          the transposed factor map.
 * Projected first (the input X = h_prev saved instead of a):
 *   dz      = dh ⊙ ReLU'(h)
 *   G       = Aggᵀ(dz)   — once, F_out wide
 *   dW      = Xᵀ · G           db = colsum(dz)
 *   dh_prev = G · Wᵀ
 */

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "compress/compressed_matrix.h"
#include "gnn/technique_config.h"
#include "graph/csr_graph.h"
#include "kernels/aggregation.h"
#include "tensor/dense_matrix.h"
#include "tensor/gemm_plan.h"

namespace graphite {

/**
 * Map @p spec's per-edge factors onto @p transposed's edge order, so that
 * Aggᵀ can run as a plain aggregation over the transposed graph.
 */
AggregationSpec transposeSpec(const CsrGraph &graph,
                              const AggregationSpec &spec,
                              const CsrGraph &transposed);

/**
 * True when a layer under @p tech runs the fused driver's blocks:
 * fusion on, and not a delayed-halo schedule over @p plan (which has no
 * fused form).
 */
bool runsFusedBlocks(const PartitionPlan *plan, const TechniqueConfig &tech);

/** Saved forward state one layer needs for its backward pass. */
struct LayerContext
{
    /** Aggregation output a^k (pre-update); unused when projecting. */
    DenseMatrix agg;
    /**
     * The layer's input X when it projects first, for dW = Xᵀ·Aggᵀ(dz);
     * null when it aggregates first. Borrowed: the caller's input
     * features or the previous layer's post-dropout output, neither of
     * which is rewritten before the backward pass.
     */
    const DenseMatrix *input = nullptr;
    /** Layer output h^k (post-activation). */
    DenseMatrix output;
    /** Compressed copy of output, maintained when compression is on. */
    CompressedMatrix outputCompressed;
    bool hasCompressed = false;
    /**
     * Bf16 copy of output (post-dropout), maintained by GnnModel when
     * the precision technique is on so the next layer gathers at half
     * width.
     */
    Bf16Matrix outputBf16;
    bool hasBf16 = false;
};

class GnnLayer;

/** How GnnModel::inference links a layer to its neighbours. */
struct LayerChain
{
    /**
     * The input already holds Z = X·W for this projecting layer: the
     * previous layer's fused block folded the projection in.
     */
    bool inProjected = false;
    /**
     * A projecting next layer whose W each finished block is multiplied
     * by while cache-resident: out then receives Z_next
     * (|V| x next->outFeatures()) and h^k is never stored. Needs the
     * fused block (fusion on, no delayed halo).
     */
    const GnnLayer *next = nullptr;
};

/** A single aggregation+update GNN layer with trainable W and b. */
class GnnLayer
{
  public:
    /**
     * @param inFeatures  input feature width F_{k-1}.
     * @param outFeatures output feature width F_k.
     * @param relu        apply ReLU (disabled on the final logits layer).
     */
    GnnLayer(std::size_t inFeatures, std::size_t outFeatures, bool relu);

    std::size_t inFeatures() const { return inFeatures_; }
    std::size_t outFeatures() const { return outFeatures_; }
    bool hasRelu() const { return relu_; }

    /** Glorot-uniform weight init, zero bias. */
    void initWeights(std::uint64_t seed);

    /**
     * Mutable weight access permanently downgrades the packed-plan
     * cache to repack-per-use: the returned reference can be retained
     * and written through at any later point (the optimizer and
     * checkpoint loader do exactly that), so no version counter can
     * see those writes. Internal mutators (initWeights, sgdStep) keep
     * precise invalidation instead.
     */
    DenseMatrix &
    weights()
    {
        weightsAliased_ = true;
        return weights_;
    }
    const DenseMatrix &weights() const { return weights_; }
    std::vector<Feature> &bias() { return bias_; }
    const std::vector<Feature> &bias() const { return bias_; }

    /**
     * W packed for the forward/update GEMM (NN mode) at @p precision,
     * repacked lazily after any weight mutation and otherwise reused
     * across blocks, layer calls and epochs — the amortisation the
     * packed micro-kernel design exists for. Each precision has its own
     * cache slot, so concurrent callers may mix precisions freely. Not
     * safe to call concurrently with weight updates (no forward is).
     */
    const GemmPlan &
    packedWeights(Precision precision = Precision::Fp32) const;

    /** W packed for the dX backward GEMM (NT mode), cached likewise. */
    const GemmPlan &
    packedWeightsTransposed(Precision precision = Precision::Fp32) const;

    /**
     * True when this layer projects first under @p tech: fusion on, a
     * Sum reduce and F_out < F_in. Fixed by those three; no option
     * selects it, and basic or any unfused run aggregates first.
     */
    bool projectsFirst(const AggregationSpec &spec,
                       const TechniqueConfig &tech) const;

    /**
     * Inference forward: writes h^k into @p out; a^k is only
     * materialised when fusion is off (the unfused path needs it as a
     * GEMM input). The gather source is @p inCompressed when
     * compression is on and it is non-null, else @p inBf16 when
     * tech.precision is Bf16 and it is non-null, else @p in. A non-null
     * @p outCompressed / @p outBf16 additionally receives the produced
     * rows packed / rounded to bf16 for the next layer (written while
     * cache-resident on the fused path).
     *
     * A layer that projects first (projectsFirst) multiplies @p in by W
     * in one pooled GEMM at tech.precision, into a per-layer scratch,
     * then gathers those F_out-wide fp32 rows and adds bias and ReLU
     * per block; @p inCompressed and @p inBf16 are not read. The
     * default @p chain drives the layer on its own; GnnModel::inference
     * passes one to fold a projection into the previous layer's block.
     *
     * A non-null @p plan with >= 2 shards switches every source to
     * shard-major execution (bit-identical to flat); tech.delayedHalo
     * then selects the replica mode, which has no fused form and runs
     * as delayed-halo aggregation + one GEMM (projecting: the GEMM,
     * then delayed-halo aggregation of its rows).
     */
    void forwardInference(const CsrGraph &graph, const AggregationSpec &spec,
                          const DenseMatrix &in,
                          const CompressedMatrix *inCompressed,
                          const Bf16Matrix *inBf16, DenseMatrix &out,
                          CompressedMatrix *outCompressed,
                          Bf16Matrix *outBf16,
                          std::span<const VertexId> order,
                          const PartitionPlan *plan,
                          const TechniqueConfig &tech,
                          const LayerChain &chain = {}) const;

    /**
     * Training forward: fills @p ctx with a^k (projecting: the input
     * record instead) and h^k, plus the packed copy when
     * @p compressOutput (the next layer gathers h^k under compression).
     * @p inBf16, when non-null under the Bf16 precision technique,
     * supplies the half-width gather source; ctx.outputBf16 is the
     * *model's* responsibility (conversion must happen after
     * inter-layer dropout).
     */
    void forwardTraining(const CsrGraph &graph, const AggregationSpec &spec,
                         const DenseMatrix &in,
                         const CompressedMatrix *inCompressed,
                         const Bf16Matrix *inBf16, LayerContext &ctx,
                         bool compressOutput,
                         std::span<const VertexId> order,
                         const PartitionPlan *plan,
                         const TechniqueConfig &tech) const;

    /**
     * Backward pass. Consumes dL/dh^k in @p gradOut (clobbered), fills
     * weight/bias gradients, and when @p gradIn is non-null computes
     * dL/dh^{k-1} via the transposed aggregation — fused with the
     * da = dz·Wᵀ GEMM (fusedLayerBackward) when tech.fusion is on and
     * the schedule is not delayed halo, so dAgg is only materialised on
     * the unfused path (into a persistent per-layer scratch). A layer
     * whose forward projected (ctx.input set) aggregates G = Aggᵀ(dz)
     * once into that scratch instead and runs dW = Xᵀ·G and
     * dh_prev = G·Wᵀ as two pooled GEMMs. The bias gradient uses the
     * parallel deterministic columnSum.
     * Allocation-free once scratch has grown to the steady-state shape.
     *
     * @param transposed     transposed graph.
     * @param transposedSpec factors remapped by transposeSpec().
     * @param order          processing order for the *transposed* graph
     *                       (GnnModel::transposedLocalityOrderFor), or
     *                       empty for identity.
     * @param transposedPlan partition plan of the *transposed* graph for
     *                       shard-major execution, or null for flat.
     */
    void backward(const CsrGraph &transposed,
                  const AggregationSpec &transposedSpec,
                  const LayerContext &ctx, DenseMatrix &gradOut,
                  DenseMatrix *gradIn, std::span<const VertexId> order,
                  const PartitionPlan *transposedPlan,
                  const TechniqueConfig &tech);

    /** SGD parameter update from the last backward()'s gradients. */
    void sgdStep(float learningRate);

    const DenseMatrix &weightGrad() const { return weightGrad_; }
    std::span<const Feature> biasGrad() const { return biasGrad_; }

  private:
    /**
     * The body both forwards share: picks the direction, the gather
     * source and the schedule once, then runs fused or unfused; @p agg
     * (training, aggregate first) keeps a^k for backprop.
     */
    void forward(const CsrGraph &graph, const AggregationSpec &spec,
                 const DenseMatrix &dense,
                 const CompressedMatrix *inCompressed,
                 const Bf16Matrix *inBf16, DenseMatrix *agg,
                 DenseMatrix &out, CompressedMatrix *outCompressed,
                 Bf16Matrix *outBf16, std::span<const VertexId> order,
                 const PartitionPlan *plan, const TechniqueConfig &tech,
                 const LayerChain &chain) const;

    /** Z = @p in · W through the cached plan, into projected_. */
    const DenseMatrix &project(const DenseMatrix &in,
                               Precision precision) const
        GRAPHITE_REQUIRES(projectMutex_);

    std::size_t inFeatures_;
    std::size_t outFeatures_;
    bool relu_;
    DenseMatrix weights_;
    std::vector<Feature> bias_;
    DenseMatrix weightGrad_;
    std::vector<Feature> biasGrad_;

    /** Bumped by internal weight mutators (initWeights, sgdStep). */
    std::uint64_t weightsVersion_ = 0;
    /** A mutable reference escaped: packs can never be trusted again. */
    bool weightsAliased_ = false;
    /** Plan-cache slots, one per Precision enumerator. */
    static constexpr std::size_t kNumPrecisions = 2;
    /**
     * Guards the lazy plan cache below, so concurrent forwards (e.g. a
     * future serving layer evaluating one model from several request
     * threads) fill each slot exactly once. Each precision has its own
     * slot: a fill for one precision never overwrites a plan another
     * thread may still be reading at the other precision. The returned
     * plan is then read unlocked, which is safe while no weight
     * mutation is in flight — the documented packedWeights() contract.
     */
    mutable Mutex planMutex_;
    mutable std::array<GemmPlan, kNumPrecisions> packedNN_
        GRAPHITE_GUARDED_BY(planMutex_);
    mutable std::array<GemmPlan, kNumPrecisions> packedNT_
        GRAPHITE_GUARDED_BY(planMutex_);
    /** weightsVersion_ each cached plan was packed at (~0 = never). */
    mutable std::array<std::uint64_t, kNumPrecisions> packedNNVersion_
        GRAPHITE_GUARDED_BY(planMutex_) = {~std::uint64_t{0},
                                           ~std::uint64_t{0}};
    mutable std::array<std::uint64_t, kNumPrecisions> packedNTVersion_
        GRAPHITE_GUARDED_BY(planMutex_) = {~std::uint64_t{0},
                                           ~std::uint64_t{0}};

    /**
     * Packed dz operand of the dW GEMM, reused across epochs: dz
     * changes every step so the pack cannot be cached like the weight
     * plans, but repacking into persistent storage keeps the
     * steady-state epoch allocation-free (pack() reuses its buffers
     * when the operand shape and precision are unchanged).
     */
    GemmPlan dwPlanScratch_;
    /**
     * Z = X·W of the projecting forward, persistent so steady-state
     * forwards stay allocation-free. Guarded so forwards of one layer
     * from several threads take turns instead of sharing it.
     */
    mutable Mutex projectMutex_;
    mutable DenseMatrix projected_ GRAPHITE_GUARDED_BY(projectMutex_);
    /**
     * Backward workspace reused across epochs: dAgg of the unfused
     * backward, or G = Aggᵀ(dz) of a projecting layer.
     */
    DenseMatrix gradScratch_;
    /** columnSum partials workspace, reused across epochs. */
    std::vector<Feature> colSumScratch_;
    /** dz rounded to bf16 for the fused bf16 backward, reused. */
    Bf16Matrix dzBf16Scratch_;
};

} // namespace graphite
