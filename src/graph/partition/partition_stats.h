/**
 * @file
 * Partition summaries — the shard-level companion of GraphStats
 * (graph/graph_stats.h): edge-cut, halo volume and shard balance of a
 * PartitionPlan, printed next to the Table-3 row in graphite_cli.
 */

#pragma once

#include <string>

#include "graph/partition/partition_plan.h"

namespace graphite {

/** Summary statistics of one PartitionPlan. */
struct PartitionStats
{
    std::size_t numShards = 0;
    /** Edges crossing a shard boundary, and their fraction of |E|. */
    EdgeId cutEdges = 0;
    double cutEdgeRatio = 0.0;
    /** Total replicated boundary rows across shards. */
    VertexId haloVertices = 0;
    /** Halo rows as a fraction of |V| (can exceed 1: one row may be
     *  replicated on several shards). */
    double haloRatio = 0.0;
    /** Smallest/largest owned-vertex count over shards. */
    VertexId minOwned = 0;
    VertexId maxOwned = 0;
    /**
     * Load imbalance: the heaviest shard's work (owned rows + edges)
     * over the mean shard work. 1.0 is perfect balance.
     */
    double loadImbalance = 0.0;
};

/** Compute PartitionStats for @p plan in one pass over its shards. */
PartitionStats computePartitionStats(const PartitionPlan &plan);

/** Human-readable one-line rendering (the formatGraphStats companion). */
std::string formatPartitionStats(const PartitionStats &stats,
                                 PartitionStrategy strategy);

} // namespace graphite
