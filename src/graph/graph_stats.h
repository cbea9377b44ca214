/**
 * @file
 * Degree statistics — the columns of the paper's Table 3.
 */

#pragma once

#include <string>

#include "graph/csr_graph.h"
#include "graph/graph_view.h"

namespace graphite {

/** Summary statistics of a graph's degree distribution. */
struct GraphStats
{
    VertexId numVertices = 0;
    EdgeId numEdges = 0;
    double avgDegree = 0.0;
    EdgeId maxDegree = 0;
    /** Population variance of the out-degree. */
    double degreeVariance = 0.0;
    /** Fraction of adjacency-matrix entries that are zero. */
    double adjacencySparsity = 0.0;
};

/**
 * Compute GraphStats for @p graph in one pass (over a DeltaCsr: base +
 * published deltas). Instantiated for CsrGraph and DeltaCsr.
 */
template <GraphView G>
GraphStats computeGraphStats(const G &graph);

/**
 * The degree of rank @p rank in descending degree order (rank 0 is the
 * maximum), clamped to the last rank; 0 for an empty graph. Copies the
 * degrees and partitions them with nth_element. Instantiated for
 * CsrGraph and DeltaCsr.
 */
template <GraphView G>
EdgeId degreeAtRank(const G &graph, std::size_t rank);

/** Human-readable one-line rendering (Table 3 row format). */
std::string formatGraphStats(const std::string &name,
                             const GraphStats &stats,
                             std::size_t inputFeatures);

} // namespace graphite
