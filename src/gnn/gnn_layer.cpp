#include "gnn/gnn_layer.h"

#include <cmath>

#include "common/assert.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "kernels/fused_layer.h"
#include "parallel/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite {

AggregationSpec
transposeSpec(const CsrGraph &graph, const AggregationSpec &spec,
              const CsrGraph &transposed)
{
    AggregationSpec out;
    out.selfFactors = spec.selfFactors;
    if (spec.edgeFactors.empty())
        return out;
    GRAPHITE_ASSERT(spec.edgeFactors.size() == graph.numEdges(),
                    "edge factor count mismatch");
    out.edgeFactors.resize(graph.numEdges());
    // Walk original edges v->u in the same order CsrGraph::transposed()
    // emits them, so cursor positions line up with the transposed CSR.
    std::vector<EdgeId> cursor(transposed.rowPtr().begin(),
                               transposed.rowPtr().end() - 1);
    const VertexId n = graph.numVertices();
    for (VertexId v = 0; v < n; ++v) {
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
            const VertexId u = graph.colIdx()[e];
            out.edgeFactors[cursor[u]++] = spec.edgeFactors[e];
        }
    }
    return out;
}

GnnLayer::GnnLayer(std::size_t inFeatures, std::size_t outFeatures,
                   bool relu)
    : inFeatures_(inFeatures), outFeatures_(outFeatures), relu_(relu),
      weights_(inFeatures, outFeatures), bias_(outFeatures, 0.0f),
      weightGrad_(inFeatures, outFeatures), biasGrad_(outFeatures, 0.0f)
{
}

void
GnnLayer::initWeights(std::uint64_t seed)
{
    const float limit = std::sqrt(
        6.0f / static_cast<float>(inFeatures_ + outFeatures_));
    weights_.fillUniform(-limit, limit, seed);
    std::fill(bias_.begin(), bias_.end(), 0.0f);
    ++weightsVersion_;
}

const GemmPlan &
GnnLayer::packedWeights(Precision precision) const
{
    const auto slot = static_cast<std::size_t>(precision);
    GRAPHITE_ASSERT(slot < kNumPrecisions, "unknown precision");
    MutexLock lock(planMutex_);
    if (packedNNVersion_[slot] != weightsVersion_) {
        packedNN_[slot].pack(GemmMode::NN, weights_, precision);
        packedNNVersion_[slot] = weightsVersion_;
    }
    return packedNN_[slot];
}

const GemmPlan &
GnnLayer::packedWeightsTransposed(Precision precision) const
{
    const auto slot = static_cast<std::size_t>(precision);
    GRAPHITE_ASSERT(slot < kNumPrecisions, "unknown precision");
    MutexLock lock(planMutex_);
    if (packedNTVersion_[slot] != weightsVersion_) {
        packedNT_[slot].pack(GemmMode::NT, weights_, precision);
        packedNTVersion_[slot] = weightsVersion_;
    }
    return packedNT_[slot];
}

void
GnnLayer::updateRows(const DenseMatrix &agg, std::size_t rows,
                     DenseMatrix &out, Precision precision) const
{
    GRAPHITE_DCHECK(agg.cols() == inFeatures_ &&
                        out.cols() == outFeatures_ && rows <= agg.rows() &&
                        rows <= out.rows(),
                    "updateRows shape mismatch");
    gemmBlockSerial(agg.row(0), rows, agg.rowStride(),
                    packedWeights(precision), out.row(0), out.rowStride(),
                    inFeatures_);
    finishUpdateBlock(out.row(0), rows, out.rowStride(), outFeatures_,
                      bias_, relu_);
}

namespace {

/** Shard-major over a plan of >= 2 shards, else flat over @p order. */
Schedule
layerSchedule(const CsrGraph &graph, std::span<const VertexId> order,
              const PartitionPlan *plan)
{
    if (plan == nullptr || plan->numShards() < 2)
        return order;
    GRAPHITE_ASSERT(plan->graph == &graph,
                    "partition plan built for another graph");
    return Schedule::sharded(*plan);
}

} // namespace

bool
GnnLayer::projectsFirst(const TechniqueConfig &tech) const
{
    return tech.fusion && outFeatures_ < inFeatures_;
}

const DenseMatrix &
GnnLayer::project(const DenseMatrix &in, Precision precision) const
{
    GRAPHITE_TRACE_SPAN("layer.project");
    GRAPHITE_ASSERT(in.cols() == inFeatures_, "input width mismatch");
    projected_.reshape(in.rows(), outFeatures_);
    gemm(GemmMode::NN, in, packedWeights(precision), projected_);
    return projected_;
}

void
GnnLayer::forward(const CsrGraph &graph, const AggregationSpec &spec,
                  const DenseMatrix &dense,
                  const CompressedMatrix *inCompressed,
                  const Bf16Matrix *inBf16, DenseMatrix *agg,
                  DenseMatrix &out, CompressedMatrix *outCompressed,
                  Bf16Matrix *outBf16, std::span<const VertexId> order,
                  const PartitionPlan *plan, const TechniqueConfig &tech,
                  const LayerChain &chain, const DropoutOp &dropout,
                  bool aggReady) const
{
    GRAPHITE_TRACE_SPAN("layer.forward");
    const Schedule schedule = layerSchedule(graph, order, plan);
    GRAPHITE_ASSERT(chain.next == nullptr || tech.fusion,
                    "only a fused block can fold the next projection");
    const GemmPlan *then = chain.next != nullptr
        ? &chain.next->packedWeights(tech.precision) : nullptr;
    if (projectsFirst(tech)) {
        // Z = X·W once (unless the previous block already produced it),
        // then Z's F_out-wide rows are gathered as fp32 (Z is
        // pre-activation: never compressed) and finished per block.
        MutexLock lock(projectMutex_);
        const DenseMatrix &z =
            chain.inProjected ? dense : project(dense, tech.precision);
        fusedLayer(graph, z, spec,
                   {nullptr, bias_, relu_, nullptr, tech.precision, then,
                    dropout},
                   out, {nullptr, outCompressed, outBf16}, schedule);
        return;
    }
    GRAPHITE_ASSERT(!chain.inProjected,
                    "projected input to an aggregate-first layer");
    FeatureRows in = dense;
    if (tech.compression && inCompressed != nullptr)
        in = *inCompressed;
    else if (tech.precision == Precision::Bf16 && inBf16 != nullptr)
        in = *inBf16;
    const UpdateOp update{&weights_, bias_, relu_,
                          &packedWeights(tech.precision), tech.precision,
                          then, dropout};
    if (aggReady) {
        // a^k is already in *agg: only the unfused path's update half.
        GRAPHITE_TRACE_SPAN("layer.update_stored_agg");
        unfusedUpdate(*agg, update, out);
    } else if (tech.fusion) {
        fusedLayer(graph, in, spec, update, out,
                   {agg, outCompressed, outBf16}, schedule);
        return;
    } else {
        // Unfused path: aggregation materialises a^k, then one big GEMM.
        DenseMatrix local;
        if (agg == nullptr) {
            local = DenseMatrix(graph.numVertices(), inFeatures_);
            agg = &local;
        }
        unfusedLayer(graph, in, spec, update, *agg, out, schedule);
    }
    if (outCompressed)
        outCompressed->compressFrom(out);
    if (outBf16)
        outBf16->fromDense(out);
}

void
GnnLayer::forwardInference(const CsrGraph &graph,
                           const AggregationSpec &spec,
                           const DenseMatrix &in,
                           const CompressedMatrix *inCompressed,
                           const Bf16Matrix *inBf16, DenseMatrix &out,
                           CompressedMatrix *outCompressed,
                           Bf16Matrix *outBf16,
                           std::span<const VertexId> order,
                           const PartitionPlan *plan,
                           const TechniqueConfig &tech,
                           const LayerChain &chain) const
{
    forward(graph, spec, in, inCompressed, inBf16, nullptr, out,
            outCompressed, outBf16, order, plan, tech, chain, {}, false);
}

void
GnnLayer::forwardTraining(const CsrGraph &graph, const AggregationSpec &spec,
                          const DenseMatrix &in,
                          const CompressedMatrix *inCompressed,
                          const Bf16Matrix *inBf16, LayerContext &ctx,
                          bool compressOutput, bool bf16Output,
                          std::span<const VertexId> order,
                          const PartitionPlan *plan,
                          const TechniqueConfig &tech,
                          const DropoutOp &dropout, bool aggReady) const
{
    GRAPHITE_ASSERT(relu_ || !dropout.on(),
                    "dropout needs the ReLU its backward folds into");
    const VertexId n = graph.numVertices();
    // A projecting layer's backward needs its input, not a^k.
    const bool projects = projectsFirst(tech);
    GRAPHITE_ASSERT(!aggReady || (!projects && ctx.agg.rows() == n &&
                                  ctx.agg.cols() == inFeatures_),
                    "a stored a^k needs an aggregate-first layer of its shape");
    ctx.input = projects ? &in : nullptr;
    if (!projects && (ctx.agg.rows() != n || ctx.agg.cols() != inFeatures_))
        ctx.agg.resize(n, inFeatures_);
    if (ctx.output.rows() != n || ctx.output.cols() != outFeatures_)
        ctx.output.resize(n, outFeatures_);
    ctx.hasCompressed = compressOutput;
    CompressedMatrix *outCompressed = nullptr;
    if (compressOutput) {
        if (ctx.outputCompressed.rows() != n ||
            ctx.outputCompressed.cols() != outFeatures_) {
            ctx.outputCompressed = CompressedMatrix(n, outFeatures_);
        }
        outCompressed = &ctx.outputCompressed;
    }
    ctx.hasBf16 = bf16Output;
    if (bf16Output)
        ctx.outputBf16.reshape(n, outFeatures_);
    ctx.dropoutScale = dropout.scale;
    forward(graph, spec, in, inCompressed, inBf16,
            projects ? nullptr : &ctx.agg, ctx.output, outCompressed,
            bf16Output ? &ctx.outputBf16 : nullptr, order, plan, tech, {},
            dropout, aggReady);
}

void
GnnLayer::backward(const CsrGraph &transposed,
                   const AggregationSpec &transposedSpec,
                   const LayerContext &ctx, DenseMatrix &gradOut,
                   DenseMatrix *gradIn, std::span<const VertexId> order,
                   const PartitionPlan *transposedPlan,
                   const TechniqueConfig &tech)
{
    GRAPHITE_TRACE_SPAN("layer.backward");
    GRAPHITE_ASSERT(gradOut.rows() == ctx.output.rows() &&
                        gradOut.cols() == outFeatures_,
                    "gradOut shape mismatch");
    // dz = h > 0 ? dh·s : 0; ctx.output is post-activation and
    // post-dropout, so zeros mark clipped and dropped positions alike.
    if (relu_)
        reluBackward(ctx.output, gradOut, ctx.dropoutScale);

    const Schedule schedule =
        layerSchedule(transposed, order, transposedPlan);
    // Projected forward: G = Aggᵀ(dz) once, F_out wide, over the
    // transposed graph.
    const bool projected = ctx.input != nullptr;
    if (projected) {
        gradScratch_.reshape(gradOut.rows(), outFeatures_);
        aggregate(transposed, gradOut, gradScratch_, transposedSpec,
                  schedule);
    }

    if (projected)
        parameterGradients(*ctx.input, gradScratch_, gradOut, tech.precision);
    else
        parameterGradients(ctx.agg, gradOut, gradOut, tech.precision);

    if (!gradIn)
        return;
    gradIn->reshape(gradOut.rows(), inFeatures_);
    if (projected) {
        // dh_prev = G·Wᵀ: no |V| x F_in intermediate.
        gemm(GemmMode::NT, gradScratch_,
             packedWeightsTransposed(tech.precision), *gradIn);
        return;
    }
    // dh_prev = Aggᵀ(dz·Wᵀ) over the transposed graph.
    if (tech.fusion) {
        // Fused: per-block (Aggᵀ dz)·Wᵀ, dAgg never materialised (see
        // kernels/fused_layer.h on the commuted fusion direction).
        FeatureRows dz = gradOut;
        if (tech.precision == Precision::Bf16) {
            // Round dz once; the fused kernel then gathers it at half
            // width over the transposed graph — gradients themselves
            // keep accumulating in fp32.
            dzBf16Scratch_.reshape(gradOut.rows(), outFeatures_);
            dzBf16Scratch_.fromDense(gradOut);
            dz = dzBf16Scratch_;
        }
        fusedLayerBackward(transposed, dz, transposedSpec,
                           packedWeightsTransposed(tech.precision), *gradIn,
                           schedule);
        return;
    }
    gradScratch_.reshape(gradOut.rows(), inFeatures_);
    gemm(GemmMode::NT, gradOut, packedWeightsTransposed(tech.precision),
         gradScratch_);
    // dAgg rows stay fp32 here: converting a transient scratch to bf16
    // would add a full extra pass for no stored-traffic win.
    aggregate(transposed, gradScratch_, *gradIn, transposedSpec, schedule);
}

void
GnnLayer::parameterGradients(const DenseMatrix &a, const DenseMatrix &g,
                             const DenseMatrix &dz, Precision precision)
{
    dwPlanScratch_.pack(GemmMode::TN, g, precision);
    gemm(GemmMode::TN, a, dwPlanScratch_, weightGrad_,
         GemmAccumulate::Overwrite);
    columnSum(dz, biasGrad_, colSumScratch_);
}

void
GnnLayer::sgdStep(float learningRate)
{
    GRAPHITE_TRACE_SPAN("layer.sgd");
    parallelFor(0, weights_.rows(), 64,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) {
            Feature *w = weights_.row(r);
            const Feature *g = weightGrad_.row(r);
            #pragma omp simd
            for (std::size_t c = 0; c < outFeatures_; ++c)
                w[c] -= learningRate * g[c];
        }
    });
    for (std::size_t c = 0; c < outFeatures_; ++c)
        bias_[c] -= learningRate * biasGrad_[c];
    ++weightsVersion_;
}

} // namespace graphite
