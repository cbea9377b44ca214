/**
 * @file
 * The one graph-read interface every graph algorithm is written
 * against.
 *
 * Both graph containers — the immutable CsrGraph and the DeltaCsr
 * overlay (base row followed by the published delta chain) — expose
 * the same four reads, so samplers, statistics, the Algorithm 3
 * locality order, the mean gather and the hot-cache threshold are each
 * written once as a template over GraphView instead of once per
 * container. An algorithm may only index a neighbor row
 * (size()/operator[]); sequential indexing is O(1) amortized on both
 * containers, random indexing is O(1) on CsrGraph only.
 */

#pragma once

#include <concepts>
#include <cstddef>

#include "common/types.h"

namespace graphite {

/**
 * A readable directed graph: vertex and edge counts, out-degree, and an
 * indexable neighbor row of each vertex. The row must stay readable
 * while the graph lives and see a stable snapshot (DeltaCsr::RowView
 * snapshots the published delta count).
 */
template <typename G>
concept GraphView = requires(const G &graph, VertexId v, std::size_t i) {
    { graph.numVertices() } -> std::convertible_to<VertexId>;
    { graph.numEdges() } -> std::convertible_to<EdgeId>;
    { graph.degree(v) } -> std::convertible_to<EdgeId>;
    { graph.neighbors(v).size() } -> std::convertible_to<std::size_t>;
    { graph.neighbors(v)[i] } -> std::convertible_to<VertexId>;
};

} // namespace graphite
