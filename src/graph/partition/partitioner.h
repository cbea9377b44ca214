/**
 * @file
 * PartitionPlan construction: degree-aware greedy edge-cut (Algorithm
 * 3's bucket assignment generalised to K balanced shards) and the hash
 * baseline it is evaluated against.
 */

#pragma once

#include <cstdint>

#include "graph/partition/partition_plan.h"

namespace graphite {

/** Knobs of makePartitionPlan. */
struct PartitionConfig
{
    /** Shard count K; 0 is treated as 1 (the trivial partition). */
    std::size_t numShards = 1;
    PartitionStrategy strategy = PartitionStrategy::Greedy;
    /** Salt of the hash strategy (ignored by greedy). */
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

/**
 * Partition @p graph into config.numShards shards.
 *
 * Greedy: bucket every vertex with its highest-degree neighbor
 * (Algorithm 3's assignment), weigh each bucket by its vertices plus
 * their edges, and place whole buckets on the currently lightest shard,
 * heaviest bucket first. Bucket members stay contiguous in the shard's
 * owned order, so each shard's order is a shard-local locality order.
 * Hash: splitmix-style hash of the vertex id modulo K, owned order
 * ascending by id — the locality-oblivious baseline.
 *
 * The plan's shards carry their owned vertices, intra/cut edge counts
 * and halo lists in first-use order; the graph pointer is retained and
 * must outlive the plan. Shards may own no
 * vertices when K exceeds the bucket (or vertex) count. Publishes the
 * partition.shards / partition.cut_edges / partition.halo_vertices
 * gauges and runs under a "partition.plan" trace span.
 */
PartitionPlan makePartitionPlan(const CsrGraph &graph,
                                const PartitionConfig &config);

} // namespace graphite
