#include "gnn/gnn_model.h"

#include <cstring>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/bf16_matrix.h"
#include "tensor/row_ops.h"

namespace graphite {

GnnModel::GnnModel(const CsrGraph &graph, GnnModelConfig config)
    : graph_(&graph), config_(std::move(config))
{
    GRAPHITE_ASSERT(config_.featureWidths.size() >= 2,
                    "need at least input and output widths");
    if (!(config_.dropoutRate >= 0.0 && config_.dropoutRate < 1.0)) {
        fatal("dropout rate must be in [0, 1) (got %g)",
              config_.dropoutRate);
    }
    switch (config_.kind) {
      case GnnKind::Gcn:
        spec_ = gcnSpec(graph);
        break;
      case GnnKind::Sage:
        spec_ = sageSpec(graph);
        break;
      case GnnKind::Gin:
        spec_ = ginSpec(graph);
        break;
    }
    transposed_ = graph.transposed();
    transposedSpec_ = transposeSpec(graph, spec_, transposed_);

    const std::size_t numLayers = config_.featureWidths.size() - 1;
    for (std::size_t k = 0; k < numLayers; ++k) {
        const bool relu = k + 1 < numLayers; // no ReLU on the logits
        layers_.push_back(std::make_unique<GnnLayer>(
            config_.featureWidths[k], config_.featureWidths[k + 1], relu));
        layers_.back()->initWeights(config_.seed + k);
    }
    contexts_.resize(numLayers);
}

std::span<const VertexId>
GnnModel::localityOrderFor(const TechniqueConfig &tech) const
{
    if (!tech.locality)
        return {};
    MutexLock lock(cacheMutex_);
    if (cachedLocalityOrder_.empty())
        cachedLocalityOrder_ = localityOrder(*graph_);
    return cachedLocalityOrder_;
}

std::span<const VertexId>
GnnModel::transposedLocalityOrderFor(const TechniqueConfig &tech) const
{
    if (!tech.locality)
        return {};
    MutexLock lock(cacheMutex_);
    if (cachedTransposedOrder_.empty())
        cachedTransposedOrder_ = localityOrder(transposed_);
    return cachedTransposedOrder_;
}

namespace {

/**
 * Find-or-build in an append-only (shards, strategy)-keyed plan cache.
 * Entries are heap-anchored and never erased, so returned plans stay
 * valid for the cache's lifetime even while later calls append new
 * keys — the property concurrent unlocked readers depend on.
 */
template <typename CacheEntry>
const PartitionPlan &
findOrBuildPlan(std::vector<std::unique_ptr<CacheEntry>> &cache,
                const CsrGraph &graph, const TechniqueConfig &tech)
{
    for (const auto &entry : cache) {
        if (entry->shards == tech.shards &&
            entry->strategy == tech.partition) {
            return entry->plan;
        }
    }
    PartitionConfig config;
    config.numShards = tech.shards;
    config.strategy = tech.partition;
    auto entry = std::make_unique<CacheEntry>();
    entry->shards = tech.shards;
    entry->strategy = tech.partition;
    entry->plan = makePartitionPlan(graph, config);
    cache.push_back(std::move(entry));
    return cache.back()->plan;
}

} // namespace

const PartitionPlan *
GnnModel::partitionPlanFor(const TechniqueConfig &tech) const
{
    if (tech.shards < 2)
        return nullptr;
    MutexLock lock(cacheMutex_);
    return &findOrBuildPlan(planCache_, *graph_, tech);
}

const PartitionPlan *
GnnModel::transposedPartitionPlanFor(const TechniqueConfig &tech) const
{
    if (tech.shards < 2)
        return nullptr;
    MutexLock lock(cacheMutex_);
    return &findOrBuildPlan(transposedPlanCache_, transposed_, tech);
}

bool
GnnModel::nextGathers(std::size_t k, const TechniqueConfig &tech) const
{
    return k + 1 < layers_.size() &&
           !layers_[k + 1]->projectsFirst(tech);
}

void
GnnModel::keyInput(const DenseMatrix &inputFeatures)
{
    const InputKey key{inputFeatures.data(), inputFeatures.rows(),
                       inputFeatures.cols()};
    if (key == inputKey_)
        return;
    inputKey_ = key;
    inputBf16Fresh_ = false;
    layer0AggSource_.reset();
}

const Bf16Matrix &
GnnModel::inputAsBf16(const DenseMatrix &inputFeatures)
{
    keyInput(inputFeatures);
    if (!inputBf16Fresh_) {
        inputBf16_.reshape(inputFeatures.rows(), inputFeatures.cols());
        inputBf16_.fromDense(inputFeatures);
        inputBf16Fresh_ = true;
    }
    return inputBf16_;
}

void
GnnModel::checkReusedAggregate(const DenseMatrix &features, Precision source)
{
    const auto broken = [](std::size_t v) {
        fatal("GnnModel::trainForward: the stored layer-0 input differs "
              "from the features at vertex %zu; they were changed in place "
              "since the call that gathered them, which the input-key "
              "contract forbids (pass a different matrix instead)",
              v);
    };
    // The bf16 copy is keyed like a^0, so a stale copy would gather a
    // stale a^0 again: check the copy against the features first.
    const bool bf16 = source == Precision::Bf16;
    for (std::size_t v = 0; bf16 && v < features.rows(); ++v) {
        for (std::size_t c = 0; c < features.cols(); ++c) {
            if (inputBf16_.row(v)[c] != bf16FromFloat(features.row(v)[c]))
                broken(v);
        }
    }
    const DenseMatrix &agg = contexts_[0].agg;
    aggCheck_.reshape(agg.rows(), agg.cols());
    const FeatureRows rows =
        bf16 ? FeatureRows(inputBf16_) : FeatureRows(features);
    aggregate(*graph_, rows, aggCheck_, spec_);
    for (std::size_t v = 0; v < agg.rows(); ++v) {
        if (std::memcmp(agg.row(v), aggCheck_.row(v),
                        agg.cols() * sizeof(Feature)) != 0) {
            broken(v);
        }
    }
}

const DenseMatrix &
GnnModel::inference(const DenseMatrix &inputFeatures,
                    const TechniqueConfig &tech)
{
    GRAPHITE_TRACE_SPAN("model.inference");
    GRAPHITE_ASSERT(inputFeatures.rows() == graph_->numVertices(),
                    "input row count mismatch");
    GRAPHITE_ASSERT(inputFeatures.cols() == config_.featureWidths.front(),
                    "input width mismatch");
    const auto order = localityOrderFor(tech);
    const PartitionPlan *plan = partitionPlanFor(tech);
    const VertexId n = graph_->numVertices();

    // Bf16 activations flow between layers only when compression does
    // not already own the gather path (the two share the same slot; the
    // packed form carries strictly more traffic savings when present).
    const bool bf16Flow =
        tech.precision == Precision::Bf16 && !tech.compression;
    bool havePacked = false;
    bool haveBf16 = false;
    bool inProjected = false;
    for (std::size_t k = 0; k < layers_.size(); ++k) {
        const GnnLayer &layer = *layers_[k];
        // Layer k reads parity k+1 (or the input features) and writes
        // parity k, so consecutive layers never alias.
        const DenseMatrix &in = k == 0 ? inputFeatures
                                       : inferBufs_[(k + 1) % 2];
        const bool gathered = nextGathers(k, tech);
        // A projecting next layer is folded into this layer's fused
        // block: out then holds Z_{k+1} = h^k·W_{k+1}, never h^k.
        LayerChain chain;
        chain.inProjected = inProjected;
        if (k + 1 < layers_.size() && !gathered && tech.fusion)
            chain.next = layers_[k + 1].get();
        DenseMatrix &out = inferBufs_[k % 2];
        out.reshape(n, chain.next ? chain.next->outFeatures()
                                  : layer.outFeatures());
        CompressedMatrix *packedPtr = nullptr;
        if (tech.compression && gathered) {
            packedPtr = &inferPacked_[k % 2];
            packedPtr->reshape(n, layer.outFeatures());
        }
        Bf16Matrix *outBf16 = nullptr;
        if (bf16Flow && gathered) {
            outBf16 = &inferBf16_[k % 2];
            outBf16->reshape(n, layer.outFeatures());
        }
        const Bf16Matrix *inBf16 = nullptr;
        if (bf16Flow) {
            inBf16 = k == 0 ? &inputAsBf16(inputFeatures)
                            : (haveBf16 ? &inferBf16_[(k + 1) % 2]
                                        : nullptr);
        }
        layer.forwardInference(*graph_, spec_, in,
                               havePacked ? &inferPacked_[(k + 1) % 2]
                                          : nullptr,
                               inBf16, out, packedPtr, outBf16, order,
                               plan, tech, chain);
        havePacked = packedPtr != nullptr;
        haveBf16 = outBf16 != nullptr;
        inProjected = chain.next != nullptr;
    }
    return inferBufs_[(layers_.size() + 1) % 2];
}

const DenseMatrix &
GnnModel::trainForward(const DenseMatrix &inputFeatures,
                       const TechniqueConfig &tech)
{
    GRAPHITE_TRACE_SPAN("model.forward");
    GRAPHITE_ASSERT(inputFeatures.rows() == graph_->numVertices(),
                    "input row count mismatch");
    GRAPHITE_ASSERT(inputFeatures.cols() == config_.featureWidths.front(),
                    "input width mismatch");
    const auto order = localityOrderFor(tech);
    const PartitionPlan *plan = partitionPlanFor(tech);
    ++dropoutEpoch_;

    const bool bf16Flow =
        tech.precision == Precision::Bf16 && !tech.compression;
    // a^0 is kept across calls of one input key and row source (see
    // the header); a projecting layer 0 gathers no a^0 to keep.
    keyInput(inputFeatures);
    const Precision source = bf16Flow ? Precision::Bf16 : Precision::Fp32;
    const bool aggregatesFirst = !layers_.front()->projectsFirst(tech);
    const bool reuseAgg = aggregatesFirst && layer0AggSource_ == source;
    layer0AggSource_ =
        aggregatesFirst ? std::optional(source) : std::nullopt;
    if (reuseAgg) {
        static obs::Counter &reuses =
            obs::MetricsRegistry::global().counter("gnn.input_agg_reuses");
        reuses.increment();
    }
    for (std::size_t k = 0; k < layers_.size(); ++k) {
        const DenseMatrix &in =
            k == 0 ? inputFeatures : contexts_[k - 1].output;
        const bool gathered = nextGathers(k, tech);
        const CompressedMatrix *inPacked =
            (k > 0 && contexts_[k - 1].hasCompressed)
                ? &contexts_[k - 1].outputCompressed : nullptr;
        const Bf16Matrix *inBf16 = nullptr;
        if (bf16Flow) {
            inBf16 = k == 0 ? &inputAsBf16(inputFeatures)
                            : (contexts_[k - 1].hasBf16
                                   ? &contexts_[k - 1].outputBf16
                                   : nullptr);
        }
        // Inter-layer dropout on hidden activations, applied as each
        // row is finished, so the copies the next layer gathers carry
        // its sparsity (what makes compression pay off in training —
        // paper Section 2.2).
        const DropoutOp dropout = k + 1 < layers_.size()
            ? DropoutOp::at(config_.dropoutRate,
                            config_.seed * 1315423911ull + dropoutEpoch_ +
                                k * 2654435761ull)
            : DropoutOp{};
        const bool aggReady = k == 0 && reuseAgg;
#ifdef GRAPHITE_ENABLE_DCHECKS
        if (aggReady)
            checkReusedAggregate(inputFeatures, source);
#endif
        layers_[k]->forwardTraining(*graph_, spec_, in, inPacked, inBf16,
                                    contexts_[k],
                                    tech.compression && gathered,
                                    bf16Flow && gathered, order, plan, tech,
                                    dropout, aggReady);
    }
    return contexts_.back().output;
}

void
GnnModel::trainBackward(DenseMatrix &lossGrad, const TechniqueConfig &tech)
{
    GRAPHITE_TRACE_SPAN("model.backward");
    const auto order = transposedLocalityOrderFor(tech);
    const PartitionPlan *transposedPlan = transposedPartitionPlanFor(tech);
    DenseMatrix *gradOut = &lossGrad;
    for (std::size_t k = layers_.size(); k-- > 0;) {
        // gradOut is gradBufs_[(k + 1) % 2] (or the caller's lossGrad
        // at the top layer), so writing parity k never aliases it. The
        // dropout between layers k-1 and k needs no pass here: layer
        // k-1's ReLU backward applies its survivor scale.
        DenseMatrix *gradIn = k > 0 ? &gradBufs_[k % 2] : nullptr;
        layers_[k]->backward(transposed_, transposedSpec_, contexts_[k],
                             *gradOut, gradIn, order, transposedPlan,
                             tech);
        gradOut = gradIn;
    }
}

void
GnnModel::sgdStep(float learningRate)
{
    GRAPHITE_TRACE_SPAN("model.sgd");
    for (auto &layer : layers_)
        layer->sgdStep(learningRate);
}

std::vector<const void *>
GnnModel::workspacePointers() const
{
    std::vector<const void *> pointers;
    for (const LayerContext &ctx : contexts_) {
        pointers.push_back(ctx.agg.data());
        pointers.push_back(ctx.output.data());
        pointers.push_back(ctx.outputBf16.data());
    }
    for (const DenseMatrix &buf : gradBufs_)
        pointers.push_back(buf.data());
    for (const DenseMatrix &buf : inferBufs_)
        pointers.push_back(buf.data());
    for (const Bf16Matrix &buf : inferBf16_)
        pointers.push_back(buf.data());
    pointers.push_back(inputBf16_.data());
    pointers.push_back(aggCheck_.data());
    return pointers;
}

} // namespace graphite
