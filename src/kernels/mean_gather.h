/**
 * @file
 * The SAGE-mean gather of one destination row — one kernel for every
 * place a single mean row is built outside the aggregation engine:
 *
 *   dst = (row(self) + Σ_j row(neighbors[j])) · 1/(n + 1),  n = |neighbors|
 *
 * The caller supplies the neighbor row (any indexable list: a CsrGraph
 * span, a DeltaCsr::RowView, a FlatBlock row of local indices) and the
 * row lookup (global id → feature row, or local index → row of the
 * previous layer's output). Serving uses it for the hot cache's
 * full-neighborhood rows (fullMeanRow) and for every sampled row;
 * MiniBatchTrainer uses it for its forward pass.
 *
 * Bitwise contract: plain float, self row first, then neighbors in list
 * order, then one multiply by the reciprocal. The column loops are
 * vectorised across columns only, so each element still sees exactly
 * that sequence of adds and one multiply, and no add can contract into
 * the multiply. An overlay holding zero deltas lists the same neighbors
 * as its base, so fullMeanRow over it is bitwise the base's row — the
 * property the serve parity tests pin.
 *
 * Precondition: no looked-up row overlaps dst (dst is restrict-
 * qualified; checked under GRAPHITE_CHECKS).
 */

#pragma once

#include <cstddef>
#include <functional>

#include "common/assert.h"
#include "common/types.h"
#include "graph/graph_view.h"
#include "tensor/dense_matrix.h"

namespace graphite {

/**
 * Mean of the row of @p self and the rows of @p neighbors, each looked
 * up through @p rowOf (an id → const Feature * map), into @p dst
 * (@p cols floats). No looked-up row may overlap @p dst.
 */
template <typename Row, typename RowOf>
inline void
meanGatherRow(VertexId self, const Row &neighbors, RowOf &&rowOf,
              std::size_t cols, Feature *__restrict dst)
{
    const auto disjoint = [dst, cols](const Feature *row) {
        const std::less_equal<const Feature *> notAfter;
        return notAfter(row + cols, dst) || notAfter(dst + cols, row);
    };
    const Feature *selfRow = rowOf(self);
    GRAPHITE_DCHECK(disjoint(selfRow), "meanGatherRow: self row aliases dst");
    #pragma omp simd
    for (std::size_t c = 0; c < cols; ++c)
        dst[c] = selfRow[c];
    const std::size_t n = neighbors.size();
    for (std::size_t j = 0; j < n; ++j) {
        const Feature *row = rowOf(neighbors[j]);
        GRAPHITE_DCHECK(disjoint(row), "meanGatherRow: row aliases dst");
        #pragma omp simd
        for (std::size_t c = 0; c < cols; ++c)
            dst[c] += row[c];
    }
    const float scale = 1.0f / (1.0f + static_cast<float>(n));
    #pragma omp simd
    for (std::size_t c = 0; c < cols; ++c)
        dst[c] *= scale;
}

/**
 * Mean-aggregate @p v's full neighborhood (self term included) from
 * @p features into @p dst (features.cols() floats). Over a DeltaCsr the
 * neighbor set is the base row then the delta chain, snapshotted once
 * (acquire), so the gather is wait-free against a concurrent addEdge()
 * and sees a consistent prefix of the chain.
 */
template <GraphView G>
inline void
fullMeanRow(const G &graph, const DenseMatrix &features, VertexId v,
            Feature *dst)
{
    meanGatherRow(
        v, graph.neighbors(v),
        [&](VertexId u) { return features.row(u); }, features.cols(), dst);
}

} // namespace graphite
