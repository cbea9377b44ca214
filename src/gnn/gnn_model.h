/**
 * @file
 * A K-layer GNN (paper Section 2.1): a stack of GnnLayer with a shared
 * aggregation spec (GCN or SAGE, Table 2), optional inter-layer dropout
 * during training, and the technique flags applied uniformly.
 */

#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "gnn/gnn_layer.h"
#include "graph/partition/partitioner.h"
#include "graph/reorder.h"

namespace graphite {

/** Hyper-parameters of a GnnModel. */
struct GnnModelConfig
{
    GnnKind kind = GnnKind::Gcn;
    /** Widths: [F_input, F_hidden..., F_output]; layers = size()-1. */
    std::vector<std::size_t> featureWidths;
    /** Dropout rate applied to hidden activations during training. */
    double dropoutRate = 0.5;
    std::uint64_t seed = 7;
};

/** Multi-layer GNN bound to one graph. */
class GnnModel
{
  public:
    /**
     * Build the model for @p graph: precomputes the aggregation spec,
     * the transposed graph + spec (for training), and initial weights.
     */
    GnnModel(const CsrGraph &graph, GnnModelConfig config);

    std::size_t numLayers() const { return layers_.size(); }
    GnnLayer &layer(std::size_t k) { return *layers_[k]; }
    const GnnLayer &layer(std::size_t k) const { return *layers_[k]; }

    const AggregationSpec &spec() const { return spec_; }
    const CsrGraph &graph() const { return *graph_; }

    /**
     * Full-batch inference. @p tech selects the kernel paths; with
     * compression on, hidden activations flow between layers in packed
     * form. Layer outputs ping-pong between two persistent buffers
     * sized to the widest layer, so repeated evaluate() calls stop
     * churning the allocator — which is why this is non-const.
     *
     * Only activations a next layer gathers are packed or rounded. When
     * layer k+1 projects first (GnnLayer::projectsFirst) and layer k
     * runs fused blocks, layer k multiplies each finished block by
     * W_{k+1} and stores only Z_{k+1}: h^k is never written, and layer
     * k+1 skips its standalone GEMM.
     *
     * @return logits (|V| x F_output); a reference into model-owned
     *         workspace, valid until the next inference() call.
     */
    const DenseMatrix &inference(const DenseMatrix &inputFeatures,
                                 const TechniqueConfig &tech);

    /**
     * Full-batch training forward: keeps every layer's context alive
     * for the backward pass. Dropout (rate from the config) is applied
     * to hidden activations; masks are saved for the backward pass.
     *
     * @return reference to the last layer's output (the logits).
     */
    const DenseMatrix &trainForward(const DenseMatrix &inputFeatures,
                                    const TechniqueConfig &tech);

    /**
     * Training backward from @p lossGrad = dL/d(logits); fills every
     * layer's weight/bias gradients. @p lossGrad is consumed (clobbered
     * in place — it doubles as the last layer's dz buffer); inter-layer
     * gradients ping-pong between two persistent model-owned buffers,
     * so steady-state epochs allocate nothing. Honors tech.fusion
     * (fused backward kernel) and tech.locality (cached transposed
     * locality order) symmetrically with the forward pass. A layer
     * that projected in the forward reads its saved input, so the
     * features passed to trainForward must still be alive and
     * unchanged.
     */
    void trainBackward(DenseMatrix &lossGrad, const TechniqueConfig &tech);

    /** SGD step on every layer. */
    void sgdStep(float learningRate);

    /** Layer @p k's saved state from the last trainForward (for tests). */
    const LayerContext &context(std::size_t k) const { return contexts_[k]; }

    /**
     * The processing order used when tech.locality is on (computed
     * lazily from Algorithm 3 and cached — the cost is amortised over
     * training epochs, which is why the paper enables it for training
     * only).
     */
    std::span<const VertexId> localityOrderFor(const TechniqueConfig &tech)
        const;

    /**
     * Locality order of the *transposed* graph, used by the backward
     * aggregation (fused or not); cached like localityOrderFor — the
     * transpose has its own degree structure, so the forward order is
     * not reused.
     */
    std::span<const VertexId>
    transposedLocalityOrderFor(const TechniqueConfig &tech) const;

    /**
     * The cache-slice partition plan used when tech.shards >= 2, or
     * null for flat execution. Built lazily and cached keyed on
     * (shards, strategy) — like the locality orders, the partitioning
     * cost is amortised over epochs. The cache is append-only: the
     * returned pointer stays valid for the model's lifetime, even
     * across calls with different shard counts or strategies.
     */
    const PartitionPlan *partitionPlanFor(const TechniqueConfig &tech)
        const;

    /**
     * Partition plan of the *transposed* graph for the backward
     * aggregation, cached like partitionPlanFor.
     */
    const PartitionPlan *
    transposedPartitionPlanFor(const TechniqueConfig &tech) const;

    /**
     * Diagnostic/test hook: data pointers of every persistent training
     * and inference workspace buffer (layer contexts, ping-pong grad
     * and inference buffers). Steady-state epochs must keep these
     * stable — the zero-allocation contract the tests pin down.
     */
    std::vector<const void *> workspacePointers() const;

  private:
    const CsrGraph *graph_;
    GnnModelConfig config_;
    AggregationSpec spec_;
    CsrGraph transposed_;
    AggregationSpec transposedSpec_;
    std::vector<std::unique_ptr<GnnLayer>> layers_;

    // Training state.
    std::vector<LayerContext> contexts_;
    std::vector<std::vector<std::uint64_t>> dropoutMasks_;
    /** One lazily-built partition plan, keyed on (shards, strategy). */
    struct CachedPartitionPlan
    {
        std::size_t shards;
        PartitionStrategy strategy;
        PartitionPlan plan;
    };

    /**
     * Guards the lazily-built locality orders and partition-plan
     * caches below, so concurrent read-only callers build each entry
     * at most once. The returned span/pointer is then read unlocked
     * during kernel execution, which is safe because the caches are
     * append-only — an entry, once built, is never moved or destroyed
     * for the model's lifetime, so a fill for a new key cannot race
     * another thread still reading an old one.
     */
    mutable Mutex cacheMutex_;
    mutable ProcessingOrder cachedLocalityOrder_
        GRAPHITE_GUARDED_BY(cacheMutex_);
    mutable ProcessingOrder cachedTransposedOrder_
        GRAPHITE_GUARDED_BY(cacheMutex_);
    /** Append-only (shards, strategy)-keyed plan caches. @{ */
    mutable std::vector<std::unique_ptr<CachedPartitionPlan>> planCache_
        GRAPHITE_GUARDED_BY(cacheMutex_);
    mutable std::vector<std::unique_ptr<CachedPartitionPlan>>
        transposedPlanCache_ GRAPHITE_GUARDED_BY(cacheMutex_);
    /** @} */
    std::uint64_t dropoutEpoch_ = 0;
    /**
     * Inter-layer gradient ping-pong: layer k writes gradBufs_[k % 2]
     * while reading the other parity (or the caller's lossGrad at the
     * top), so no layer ever reads the buffer it writes.
     */
    std::array<DenseMatrix, 2> gradBufs_;
    // Inference workspace (see inference()).
    std::array<DenseMatrix, 2> inferBufs_;
    std::array<CompressedMatrix, 2> inferPacked_;
    /** Bf16 inter-layer ping-pong of the inference path. */
    std::array<Bf16Matrix, 2> inferBf16_;
    /**
     * Layer 0's gather source under the bf16 technique: a one-time
     * rounding of the caller's input features, keyed on their data
     * pointer and shape. Assumes the input matrix is not mutated in
     * place between calls (true of every driver here — features are
     * loaded once per run); pass a different matrix object to force a
     * rebuild.
     */
    Bf16Matrix inputBf16_;
    const void *inputBf16Key_ = nullptr;
    std::size_t inputBf16Rows_ = 0;
    std::size_t inputBf16Cols_ = 0;

    /**
     * Whether layer k+1 gathers h^k, the only case in which h^k is
     * packed or rounded: never the logits, nor the input of a layer
     * that projects first (it multiplies h^k by W instead).
     */
    bool nextGathers(std::size_t k, const TechniqueConfig &tech) const;

    /** Round @p inputFeatures into inputBf16_ if the cache is stale. */
    const Bf16Matrix &inputAsBf16(const DenseMatrix &inputFeatures);
};

} // namespace graphite
