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

double
MiniBatchTrainer::forwardBatch()
{
    for (std::size_t k = 0; k < layers_.size(); ++k) {
        const FlatBlock &block = tree_.blocks[k];
        BlockContext &ctx = contexts_[k];
        const std::size_t numDst = block.dstVertices.size();
        const GnnLayer &layer = *layers_[k];

        // GraphSAGE-mean over the sampled neighborhood plus self; GCN
        // symmetric norms are ill-defined on sampled bipartite blocks
        // (DGL's sampled SAGE uses the mean too). Layer 0 reads the
        // feature table by the block's global source ids; layer k > 0
        // the previous layer's output (kept alive: the backward pass
        // needs every layer's activation), by local source id.
        const auto rowOf = [&](VertexId j) {
            return k == 0 ? features_.row(block.srcVertices[j])
                          : contexts_[k - 1].output.row(j);
        };
        ctx.agg.reshape(numDst, layer.inFeatures());
        for (std::size_t d = 0; d < numDst; ++d) {
            meanGatherRow(static_cast<VertexId>(d), block.neighbors(d),
                          rowOf, layer.inFeatures(), ctx.agg.row(d));
        }
        ctx.output.reshape(numDst, layer.outFeatures());
        layer.updateRows(ctx.agg, numDst, ctx.output, config_.precision);
    }

    const BlockContext &last = contexts_.back();
    const auto &seeds = tree_.blocks.back().dstVertices;
    std::vector<std::int32_t> batchLabels(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i)
        batchLabels[i] = labels_[seeds[i]];
    DenseMatrix &lossGrad = contexts_.back().grad;
    lossGrad.reshape(last.output.rows(), last.output.cols());
    return softmaxCrossEntropy(last.output, batchLabels, lossGrad);
}

void
MiniBatchTrainer::backwardBatch()
{
    for (std::size_t k = layers_.size(); k-- > 0;) {
        BlockContext &ctx = contexts_[k];
        GnnLayer &layer = *layers_[k];
        DenseMatrix &dz = ctx.grad;
        if (layer.hasRelu())
            reluBackward(ctx.output, dz);

        // dW = aggᵀ·dz and db = colsum(dz), then dAgg = dz·Wᵀ from the
        // pre-update W, then the plain SGD step of this mini-batch.
        layer.parameterGradients(ctx.agg, dz, dz, config_.precision);
        dAgg_.reshape(dz.rows(), layer.inFeatures());
        gemm(GemmMode::NT, dz,
             layer.packedWeightsTransposed(config_.precision), dAgg_);
        layer.sgdStep(config_.learningRate);

        if (k == 0)
            break;
        // dx over the block's sources, into the previous layer's
        // output gradient: push each destination's scaled gradient back
        // along its sampled edges, then onto its own row (destination d
        // is local source d).
        const FlatBlock &block = tree_.blocks[k];
        const std::size_t numDst = block.dstVertices.size();
        const std::size_t inF = layer.inFeatures();
        DenseMatrix &dSrc = contexts_[k - 1].grad;
        dSrc.reshape(block.srcVertices.size(), inF);
        dSrc.zero();
        auto push = [&](std::size_t d, VertexId j) {
            const Feature scale =
                1.0f / (1.0f + static_cast<float>(block.neighbors(d).size()));
            const Feature *from = dAgg_.row(d);
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
        sampleMiniBatch(graph_, seeds, config_.fanouts, rng_, sampler_, tree_);
        stats.samplingSeconds += sampling.seconds();

        Timer layerTimer;
        lossSum += forwardBatch();
        backwardBatch();
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
        sampleMiniBatch(graph_, seeds, config_.fanouts, rng, sampler_, tree_);
        lossSum += forwardBatch();
    }
    return lossSum / static_cast<double>(batches.size());
}

} // namespace graphite
