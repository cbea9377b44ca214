#include "gnn/minibatch_trainer.h"


#include "common/assert.h"
#include "common/timer.h"
#include "kernels/mean_gather.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite {

MiniBatchTrainer::MiniBatchTrainer(const CsrGraph &graph,
                                   const DenseMatrix &features,
                                   std::vector<std::int32_t> labels,
                                   std::vector<std::size_t> featureWidths,
                                   MiniBatchConfig config)
    : graph_(graph), features_(features), labels_(std::move(labels)),
      config_(std::move(config)), rng_(config_.seed),
      sampler_(graph.numVertices())
{
    GRAPHITE_ASSERT(featureWidths.size() >= 2, "need at least two widths");
    GRAPHITE_ASSERT(featureWidths.size() - 1 == config_.fanouts.size(),
                    "one fanout per layer required");
    GRAPHITE_ASSERT(featureWidths.front() == features.cols(),
                    "input width mismatch");
    GRAPHITE_ASSERT(labels_.size() == graph.numVertices(),
                    "label count mismatch");
    for (std::size_t k = 0; k + 1 < featureWidths.size(); ++k) {
        const bool relu = k + 2 < featureWidths.size();
        layers_.push_back(std::make_unique<GnnLayer>(
            featureWidths[k], featureWidths[k + 1], relu));
        layers_.back()->initWeights(config_.seed + 100 + k);
    }
    contexts_.resize(layers_.size());
}

void
MiniBatchTrainer::sampleBatch(const std::vector<VertexId> &seeds, Rng &rng)
{
    sampleMiniBatch(graph_, seeds, config_.fanouts, rng, sampler_, tree_);
    contexts_[0].input =
        gatherBatchFeatures(features_, tree_.inputVertices());
}

double
MiniBatchTrainer::forwardBatch(DenseMatrix &lossGrad)
{
    for (std::size_t k = 0; k < layers_.size(); ++k) {
        const FlatBlock &block = tree_.blocks[k];
        BlockContext &ctx = contexts_[k];
        // Layer k's input is the previous layer's output (kept alive:
        // the backward pass needs every layer's activation). Both are
        // indexed by the block's local source ids.
        const DenseMatrix &input =
            k == 0 ? ctx.input : contexts_[k - 1].output;
        const std::size_t numDst = block.dstVertices.size();
        GnnLayer &layer = *layers_[k];

        // GraphSAGE-mean over the sampled neighborhood plus self; GCN
        // symmetric norms are ill-defined on sampled bipartite blocks
        // (DGL's sampled SAGE uses the mean too).
        ctx.agg.resize(numDst, layer.inFeatures());
        for (std::size_t d = 0; d < numDst; ++d) {
            meanGatherRow(
                static_cast<VertexId>(d), block.neighbors(d),
                [&](VertexId j) { return input.row(j); },
                layer.inFeatures(), ctx.agg.row(d));
        }
        ctx.output.resize(numDst, layer.outFeatures());
        // Serial packed update over the whole sampled block; the packed
        // weights come from the layer's cache (repacked only after the
        // in-loop SGD update mutates W).
        gemmBlockSerial(ctx.agg.row(0), numDst, ctx.agg.rowStride(),
                        layer.packedWeights(config_.precision),
                        ctx.output.row(0), ctx.output.rowStride(),
                        layer.inFeatures());
        GRAPHITE_ASSERT(layer.bias().size() == layer.outFeatures(),
                        "bias width mismatch");
        finishUpdateBlock(ctx.output.row(0), numDst,
                          ctx.output.rowStride(), layer.outFeatures(),
                          layer.bias(), layer.hasRelu());
    }

    const BlockContext &last = contexts_.back();
    const auto &seeds = tree_.blocks.back().dstVertices;
    std::vector<std::int32_t> batchLabels(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i)
        batchLabels[i] = labels_[seeds[i]];
    lossGrad.resize(last.output.rows(), last.output.cols());
    return softmaxCrossEntropy(last.output, batchLabels, lossGrad);
}

void
MiniBatchTrainer::backwardBatch(DenseMatrix lossGrad)
{
    DenseMatrix gradOut = std::move(lossGrad);
    for (std::size_t k = layers_.size(); k-- > 0;) {
        BlockContext &ctx = contexts_[k];
        GnnLayer &layer = *layers_[k];
        if (layer.hasRelu())
            reluBackward(ctx.output, gradOut);

        // dW = aggᵀ·dz, db = colsum(dz).
        DenseMatrix weightGrad(layer.inFeatures(), layer.outFeatures());
        gemm(GemmMode::TN, ctx.agg, gradOut, weightGrad);
        std::vector<Feature> biasGrad(layer.outFeatures(), 0.0f);
        for (std::size_t r = 0; r < gradOut.rows(); ++r) {
            const Feature *row = gradOut.row(r);
            for (std::size_t c = 0; c < biasGrad.size(); ++c)
                biasGrad[c] += row[c];
        }

        DenseMatrix dAgg(gradOut.rows(), layer.inFeatures());
        gemm(GemmMode::NT, gradOut,
             layer.packedWeightsTransposed(config_.precision), dAgg);

        // Parameter update (plain SGD per mini-batch).
        DenseMatrix &weights = layer.weights();
        for (std::size_t r = 0; r < weights.rows(); ++r) {
            Feature *w = weights.row(r);
            const Feature *g = weightGrad.row(r);
            for (std::size_t c = 0; c < weights.cols(); ++c)
                w[c] -= config_.learningRate * g[c];
        }
        for (std::size_t c = 0; c < biasGrad.size(); ++c)
            layer.bias()[c] -= config_.learningRate * biasGrad[c];

        if (k == 0)
            break;
        // dx over the block's sources: push each destination's scaled
        // gradient back along its sampled edges, then onto its own row
        // (destination d is local source d).
        const FlatBlock &block = tree_.blocks[k];
        const std::size_t numDst = block.dstVertices.size();
        const std::size_t inF = layer.inFeatures();
        DenseMatrix dSrc(block.srcVertices.size(), inF);
        auto push = [&](std::size_t d, VertexId j) {
            const Feature scale =
                1.0f / (1.0f + static_cast<float>(block.neighbors(d).size()));
            const Feature *from = dAgg.row(d);
            Feature *to = dSrc.row(j);
            for (std::size_t c = 0; c < inF; ++c)
                to[c] += scale * from[c];
        };
        for (std::size_t d = 0; d < numDst; ++d) {
            for (const VertexId j : block.neighbors(d))
                push(d, j);
        }
        for (std::size_t d = 0; d < numDst; ++d)
            push(d, static_cast<VertexId>(d));
        gradOut = std::move(dSrc);
    }
}

MiniBatchEpochStats
MiniBatchTrainer::trainEpoch()
{
    MiniBatchEpochStats stats;
    const auto batches =
        makeEpochBatches(graph_, config_.batchSize, rng_);
    double lossSum = 0.0;
    for (const auto &seeds : batches) {
        Timer sampling;
        sampleBatch(seeds, rng_);
        stats.samplingSeconds += sampling.seconds();

        Timer layerTimer;
        DenseMatrix lossGrad;
        lossSum += forwardBatch(lossGrad);
        backwardBatch(std::move(lossGrad));
        stats.layerSeconds += layerTimer.seconds();
    }
    stats.loss = lossSum / static_cast<double>(batches.size());
    return stats;
}

double
MiniBatchTrainer::evaluateLoss()
{
    Rng rng(config_.seed);
    const auto batches = makeEpochBatches(graph_, config_.batchSize, rng);
    double lossSum = 0.0;
    for (const auto &seeds : batches) {
        sampleBatch(seeds, rng);
        DenseMatrix lossGrad;
        lossSum += forwardBatch(lossGrad);
    }
    return lossSum / static_cast<double>(batches.size());
}

} // namespace graphite
