/**
 * @file
 * Full-batch GNN training driver (paper Section 2.1's training loop):
 * forward pass, softmax cross-entropy, backward pass, SGD — no sampling,
 * no mini-batching, the regime the paper argues CPUs enable.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "gnn/gnn_model.h"

namespace graphite {

/** Per-epoch training record. */
struct EpochStats
{
    double loss = 0.0;
    double trainAccuracy = 0.0;
    /**
     * Wall-clock seconds of the epoch's training work (forward + loss
     * + backward + SGD). Excludes the optional checkNumerics sweeps —
     * those are validation, not training, and folding them in used to
     * silently inflate every reported epoch time when the sweep was on.
     */
    double seconds = 0.0;
    /** Wall-clock seconds spent in checkNumerics sweeps (0 when off). */
    double numericsSeconds = 0.0;
};

/** Hyper-parameters of a training run. */
struct TrainerConfig
{
    float learningRate = 0.05f;
    std::size_t epochs = 10;
    TechniqueConfig tech;
    /**
     * Optional train-split mask (1 byte per vertex, non-zero = in the
     * split); empty means every vertex is labelled, the full-batch
     * default. Standard node-classification benchmarks label a subset.
     */
    std::vector<std::uint8_t> trainMask;
    /** Optional evaluation mask used by evaluate(); empty = all. */
    std::vector<std::uint8_t> evalMask;
    /**
     * Numerics sweep: after each epoch's forward and backward, run
     * DenseMatrix::countNonFinite() over the logits and loss gradient
     * and throw std::runtime_error if NaN/Inf escaped the update phase
     * (diverged learning rate, corrupted weights). Off by default — the
     * sweep is O(|V| x classes) per epoch.
     */
    bool checkNumerics = false;
};

/**
 * Random disjoint train/eval split masks: @p trainFraction of vertices
 * in the train mask, @p evalFraction in the eval mask.
 */
std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>
makeSplitMasks(std::size_t numVertices, double trainFraction,
               double evalFraction, std::uint64_t seed);

/** Full-batch trainer binding a model, features and labels. */
class Trainer
{
  public:
    /**
     * Refuses by name (fatal) features that are not |V| x the model's
     * input width, a label count other than |V|, a label outside
     * [0, classes) (classes = the last layer's width), and a non-empty
     * trainMask or evalMask whose size is not |V|.
     *
     * @param inputFeatures borrowed for the trainer's lifetime and not
     *        changed in place (GnnModel::trainForward's input key).
     * @param labels one class id per vertex.
     */
    Trainer(GnnModel &model, const DenseMatrix &inputFeatures,
            std::vector<std::int32_t> labels, TrainerConfig config);

    /** Run one epoch (forward + loss + backward + SGD). */
    EpochStats trainEpoch();

    /** Run config.epochs epochs and return their stats. */
    std::vector<EpochStats> train();

    /** Inference accuracy with the current parameters. */
    double evaluate() const;

  private:
    GnnModel &model_;
    const DenseMatrix &inputFeatures_;
    std::vector<std::int32_t> labels_;
    TrainerConfig config_;
    /** dL/d(logits) workspace, reused across epochs. */
    DenseMatrix lossGradScratch_;
};

/**
 * Build a synthetic node-classification task on @p graph: class labels
 * assigned by seeded label propagation (so they correlate with graph
 * structure and are learnable), plus input features that are noisy
 * class indicators.
 *
 * @param numClasses  number of classes.
 * @param featureWidth width of the generated input features.
 * @param noise       feature noise amplitude in [0, 1].
 */
struct SyntheticTask
{
    DenseMatrix features;
    std::vector<std::int32_t> labels;
};

SyntheticTask makeSyntheticTask(const CsrGraph &graph,
                                std::size_t numClasses,
                                std::size_t featureWidth, double noise,
                                std::uint64_t seed);

} // namespace graphite
