/**
 * @file
 * Vertex processing orders for the aggregation phase.
 *
 * The order in which aggregation visits vertices determines the reuse
 * distance of shared neighbors' feature vectors (paper Section 4.4). A
 * processing order is a permutation M of V: aggregation handles M[i+1]
 * immediately after M[i]. This module implements the paper's greedy
 * locality order (Algorithm 3) plus the identity/random/degree-sorted
 * orders used as experimental controls (Figure 15).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph_view.h"

namespace graphite {

/** A vertex processing order: processingOrder[i] is the i-th vertex. */
using ProcessingOrder = std::vector<VertexId>;

/**
 * Paper Algorithm 3 with its buckets kept: bucket u (the vertices whose
 * highest-degree neighbor is u) is the contiguous slice
 * order[bucketStart[u], bucketStart[u+1]).
 */
struct LocalityBuckets
{
    ProcessingOrder order;
    /** |V|+1 bucket offsets into order. */
    std::vector<std::size_t> bucketStart;
};

/**
 * Paper Algorithm 3: assign each vertex to the bucket of its
 * highest-degree neighbor (ties broken toward the lower id, with the
 * vertex itself as the initial candidate), then emit buckets
 * consecutively. O(|V| + |E|) time. Over a DeltaCsr, degrees and
 * neighbor sets include published delta edges, so the order reflects
 * hub growth under churn. Instantiated for CsrGraph and DeltaCsr.
 */
template <GraphView G>
LocalityBuckets localityBuckets(const G &graph);

/** The order of localityBuckets(@p graph). */
template <GraphView G>
ProcessingOrder
localityOrder(const G &graph)
{
    return localityBuckets(graph).order;
}

/** Identity order 0, 1, ..., |V|-1. */
ProcessingOrder identityOrder(const CsrGraph &graph);

/** Uniformly random permutation (Figure 15's `randomized` control). */
ProcessingOrder randomOrder(const CsrGraph &graph, std::uint64_t seed);

/** Vertices sorted by descending degree (a common locality heuristic). */
ProcessingOrder degreeOrder(const CsrGraph &graph);

/**
 * Breadth-first order from the highest-degree vertex (disconnected
 * components appended in id order): the classic graph-processing
 * locality baseline the greedy Algorithm 3 competes with.
 */
ProcessingOrder bfsOrder(const CsrGraph &graph);

/** @return true iff @p order is a permutation of [0, |V|). */
bool isPermutation(const CsrGraph &graph, const ProcessingOrder &order);

/**
 * Average reuse distance proxy: over every *re*-gathered feature vector,
 * the number of processing steps since its previous touch, capped at
 * @p cap. First touches are compulsory misses that every order pays
 * equally, so they are excluded. Cheap model used by tests to verify
 * that localityOrder actually shortens reuse distances.
 */
double averageReuseDistance(const CsrGraph &graph,
                            const ProcessingOrder &order,
                            std::size_t cap = 1u << 20);

} // namespace graphite
