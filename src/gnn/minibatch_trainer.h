/**
 * @file
 * Sampled mini-batch training — the GPU-era regime the paper's Figure 2
 * profiles (and argues against for CPUs). Each step samples a K-hop
 * neighborhood for a batch of seed vertices (Eq. 3), gathers the input
 * features, runs the layer stack over the bipartite blocks, and updates
 * the parameters from the batch loss.
 *
 * This trainer exists (a) to drive the Figure 2 experiment with a real
 * end-to-end training loop and (b) as the baseline a downstream user
 * would compare full-batch training against.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gnn/gnn_layer.h"
#include "sampling/neighbor_sampler.h"

namespace graphite {

/** Hyper-parameters of a sampled training run. */
struct MiniBatchConfig
{
    std::size_t batchSize = 1024;
    /** Per-layer sampling fan-outs, innermost layer first. */
    std::vector<VertexId> fanouts = {10, 10};
    float learningRate = 0.05f;
    std::uint64_t seed = 1;
    /**
     * GEMM precision. At Bf16 the per-block update and backward GEMMs
     * run through the bf16 micro-kernel; the per-batch feature gathers
     * stay fp32, because converting a transient sampled block to bf16
     * costs a pass over data touched exactly once — nothing amortises
     * it (unlike full-batch activations, reread every epoch).
     */
    Precision precision = Precision::Fp32;
};

/** Per-epoch record with the Figure 2 cost split. */
struct MiniBatchEpochStats
{
    double loss = 0.0;
    /** Seconds spent sampling + building blocks + gathering features. */
    double samplingSeconds = 0.0;
    /** Seconds spent in the GNN layer compute. */
    double layerSeconds = 0.0;
};

/**
 * Sampled-GNN trainer over a stack of GnnLayers (owned here — the
 * full-batch GnnModel is graph-bound and unsuitable for per-batch
 * block graphs).
 */
class MiniBatchTrainer
{
  public:
    /**
     * @param featureWidths [F_input, hidden..., numClasses]; the layer
     *        count must equal config.fanouts.size().
     */
    MiniBatchTrainer(const CsrGraph &graph, const DenseMatrix &features,
                     std::vector<std::int32_t> labels,
                     std::vector<std::size_t> featureWidths,
                     MiniBatchConfig config);

    /** Run one epoch over shuffled mini-batches. */
    MiniBatchEpochStats trainEpoch();

    /**
     * Mean loss of one forward pass over every batch (no update). The
     * batches and samples come from an Rng seeded with config.seed on
     * every call, so repeated calls agree and training's RNG stream is
     * left untouched.
     */
    double evaluateLoss();

    GnnLayer &layer(std::size_t k) { return *layers_[k]; }
    std::size_t numLayers() const { return layers_.size(); }

    /**
     * Borrowed layer stack, innermost first — the handoff from training
     * to the serving layer (serve::InferenceServer), which evaluates
     * the trained parameters without owning them. Pointers stay valid
     * for the trainer's lifetime.
     */
    std::vector<GnnLayer *>
    layerPointers()
    {
        std::vector<GnnLayer *> out;
        out.reserve(layers_.size());
        for (const auto &l : layers_)
            out.push_back(l.get());
        return out;
    }

  private:
    /**
     * Sample @p seeds' blocks into tree_ and gather the batch's input
     * features into contexts_[0].input (the cost Figure 2 attributes to
     * sampling and mini-batching).
     */
    void sampleBatch(const std::vector<VertexId> &seeds, Rng &rng);
    /** Forward tree_; returns the loss and fills the contexts. */
    double forwardBatch(DenseMatrix &lossGrad);
    /** Backward + SGD step over tree_ from the loss gradient. */
    void backwardBatch(DenseMatrix lossGrad);

    const CsrGraph &graph_;
    const DenseMatrix &features_;
    std::vector<std::int32_t> labels_;
    MiniBatchConfig config_;
    std::vector<std::unique_ptr<GnnLayer>> layers_;
    Rng rng_;
    /** The sampler's state and the current batch's blocks. @{ */
    SamplerScratch sampler_;
    SampledTree tree_;
    /** @} */

    // Per-batch forward state, innermost layer first.
    struct BlockContext
    {
        DenseMatrix input;  ///< gathered/propagated source features
        DenseMatrix agg;    ///< block aggregation output
        DenseMatrix output; ///< post-activation destination features
    };
    std::vector<BlockContext> contexts_;
};

} // namespace graphite
