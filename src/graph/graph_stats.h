/**
 * @file
 * Degree statistics — the columns of the paper's Table 3.
 */

#pragma once

#include <string>
#include <vector>

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
 * degrees into @p degrees (resized to |V|, so a caller that keeps it
 * re-ranks without allocating) and partitions them with nth_element.
 * Instantiated for CsrGraph and DeltaCsr.
 */
template <GraphView G>
EdgeId degreeAtRank(const G &graph, std::size_t rank,
                    std::vector<EdgeId> &degrees);

/**
 * O(1)-per-edge maintenance of GraphStats under edge inserts, so the
 * dynamic serving path (DESIGN.md §14) keeps Table-3-style stats live
 * without an O(|V|) rescan per mutation. Seeded from a full
 * computeGraphStats() pass; onEdgeInserted() folds one new edge into
 * the degree moments:
 *
 *   numEdges' = numEdges + 1
 *   sumDeg'   = sumDeg + 1
 *   sumSq'    = sumSq + 2 * newDegree - 1   (d² → (d+1)²)
 *
 * avg/variance/max/sparsity are recomputed from the moments on read.
 * Exact (up to float rounding), not an approximation — tests compare
 * against a from-scratch recompute.
 */
class IncrementalGraphStats
{
  public:
    /** Seed from a full pass over @p initial. */
    explicit IncrementalGraphStats(const GraphStats &initial);

    /**
     * Fold in one inserted edge whose source vertex now has out-degree
     * @p newDegree (i.e. the post-insert degree).
     */
    void onEdgeInserted(EdgeId newDegree);

    /** Current statistics (recomputed from the running moments). */
    GraphStats current() const;

  private:
    VertexId numVertices_;
    EdgeId numEdges_;
    EdgeId maxDegree_;
    double sumDeg_;
    double sumSq_;
};

/** Human-readable one-line rendering (Table 3 row format). */
std::string formatGraphStats(const std::string &name,
                             const GraphStats &stats,
                             std::size_t inputFeatures);

} // namespace graphite
