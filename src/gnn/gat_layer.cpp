#include "gnn/gat_layer.h"

#include <cmath>

#include "common/assert.h"
#include "common/rng.h"
#include "parallel/thread_pool.h"
#include "tensor/gemm.h"

namespace graphite {

namespace {

float
leakyRelu(float x, float slope)
{
    return x > 0.0f ? x : slope * x;
}

float
elu(float x)
{
    return x > 0.0f ? x : std::expm1(x);
}

} // namespace

GatLayer::GatLayer(std::size_t inFeatures, std::size_t outFeatures,
                   float negativeSlope)
    : inFeatures_(inFeatures), outFeatures_(outFeatures),
      negativeSlope_(negativeSlope), weights_(inFeatures, outFeatures),
      attnSrc_(outFeatures, 0.0f), attnDst_(outFeatures, 0.0f)
{
}

void
GatLayer::initWeights(std::uint64_t seed)
{
    const float limit = std::sqrt(
        6.0f / static_cast<float>(inFeatures_ + outFeatures_));
    weights_.fillUniform(-limit, limit, seed);
    Rng rng(seed + 1);
    for (std::size_t c = 0; c < outFeatures_; ++c) {
        attnSrc_[c] = (2.0f * rng.uniformFloat() - 1.0f) * limit;
        attnDst_[c] = (2.0f * rng.uniformFloat() - 1.0f) * limit;
    }
}

DenseMatrix
GatLayer::project(const DenseMatrix &h) const
{
    GRAPHITE_ASSERT(h.cols() == inFeatures_, "input width mismatch");
    DenseMatrix z(h.rows(), outFeatures_);
    gemm(GemmMode::NN, h, weights_, z);
    return z;
}

AggregationSpec
GatLayer::attentionSpec(const CsrGraph &graph, const DenseMatrix &z) const
{
    const VertexId n = graph.numVertices();
    GRAPHITE_ASSERT(z.rows() == n, "row count mismatch");
    GRAPHITE_ASSERT(z.cols() == outFeatures_, "width mismatch");

    // Per-vertex attention projections: sSrc[u] = aSrcᵀ z_u (its score
    // as a *source* of messages) and sDst[v] = aDstᵀ z_v (as a
    // destination). The per-edge logit is their sum — this is the
    // SDDMM-style decomposition that makes GAT attention O(|V|F + |E|).
    std::vector<Feature> srcScore(n);
    std::vector<Feature> dstScore(n);
    parallelFor(0, n, 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t v = begin; v < end; ++v) {
            const Feature *row = z.row(v);
            Feature s = 0.0f;
            Feature d = 0.0f;
            #pragma omp simd reduction(+ : s, d)
            for (std::size_t c = 0; c < outFeatures_; ++c) {
                s += attnSrc_[c] * row[c];
                d += attnDst_[c] * row[c];
            }
            srcScore[v] = s;
            dstScore[v] = d;
        }
    });

    AggregationSpec spec;
    spec.edgeFactors.resize(graph.numEdges());
    spec.selfFactors.resize(n);
    parallelFor(0, n, 128,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t vi = begin; vi < end; ++vi) {
            const auto v = static_cast<VertexId>(vi);
            // Numerically-stable softmax over N(v) ∪ {v}.
            const float selfLogit = leakyRelu(
                dstScore[v] + srcScore[v], negativeSlope_);
            float maxLogit = selfLogit;
            for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v);
                 ++e) {
                const float logit = leakyRelu(
                    dstScore[v] + srcScore[graph.colIdx()[e]],
                    negativeSlope_);
                maxLogit = std::max(maxLogit, logit);
            }
            double denom = std::exp(double{selfLogit} - maxLogit);
            for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v);
                 ++e) {
                const float logit = leakyRelu(
                    dstScore[v] + srcScore[graph.colIdx()[e]],
                    negativeSlope_);
                denom += std::exp(double{logit} - maxLogit);
            }
            spec.selfFactors[v] = static_cast<Feature>(
                std::exp(double{selfLogit} - maxLogit) / denom);
            for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v);
                 ++e) {
                const float logit = leakyRelu(
                    dstScore[v] + srcScore[graph.colIdx()[e]],
                    negativeSlope_);
                spec.edgeFactors[e] = static_cast<Feature>(
                    std::exp(double{logit} - maxLogit) / denom);
            }
        }
    });
    return spec;
}

DenseMatrix
GatLayer::forward(const CsrGraph &graph, const DenseMatrix &h) const
{
    DenseMatrix z = project(h);
    const AggregationSpec attention = attentionSpec(graph, z);
    DenseMatrix out(graph.numVertices(), outFeatures_);
    aggregate(graph, z, out, attention);
    parallelFor(0, out.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) {
            Feature *row = out.row(r);
            for (std::size_t c = 0; c < outFeatures_; ++c)
                row[c] = elu(row[c]);
        }
    });
    return out;
}

DenseMatrix
GatLayer::forwardReference(const CsrGraph &graph,
                           const DenseMatrix &h) const
{
    // Naive triple-checked math: per vertex, recompute the logits and
    // softmax directly from z and aggregate with plain loops.
    DenseMatrix z = project(h);
    const VertexId n = graph.numVertices();
    DenseMatrix out(n, outFeatures_);
    for (VertexId v = 0; v < n; ++v) {
        auto logitOf = [&](VertexId u) {
            float dst = 0.0f;
            float src = 0.0f;
            for (std::size_t c = 0; c < outFeatures_; ++c) {
                dst += attnDst_[c] * z.at(v, c);
                src += attnSrc_[c] * z.at(u, c);
            }
            return leakyRelu(dst + src, negativeSlope_);
        };
        float maxLogit = logitOf(v);
        for (VertexId u : graph.neighbors(v))
            maxLogit = std::max(maxLogit, logitOf(u));
        double denom = std::exp(double{logitOf(v)} - maxLogit);
        for (VertexId u : graph.neighbors(v))
            denom += std::exp(double{logitOf(u)} - maxLogit);
        for (std::size_t c = 0; c < outFeatures_; ++c) {
            double acc = std::exp(double{logitOf(v)} - maxLogit) /
                         denom * z.at(v, c);
            for (VertexId u : graph.neighbors(v)) {
                acc += std::exp(double{logitOf(u)} - maxLogit) / denom *
                       z.at(u, c);
            }
            out.at(v, c) = elu(static_cast<Feature>(acc));
        }
    }
    return out;
}

} // namespace graphite
