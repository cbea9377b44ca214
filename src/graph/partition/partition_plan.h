/**
 * @file
 * Cache-slice graph partition: K vertex shards and their halo lists.
 *
 * The paper's locality order (Algorithm 3) shortens reuse distances
 * within one flat processing order, but on graphs whose feature working
 * set exceeds the LLC the aggregation phase still re-streams hub rows
 * from DRAM. A PartitionPlan slices the vertex set into K balanced
 * shards so each shard's feature slice can stay cache-resident while it
 * is processed (the DistGNN-style scalable form of the same locality
 * idea). Each shard owns a contiguous run of the shard-major processing
 * order and lists the halo (boundary) vertices other shards own that
 * its cut edges read, which the partition report counts.
 */

#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/csr_graph.h"
#include "graph/reorder.h"

namespace graphite {

/** How vertices are assigned to shards. */
enum class PartitionStrategy : std::uint8_t
{
    /**
     * Algorithm 3's bucket assignment generalised to K shards: vertices
     * sharing a highest-degree neighbor form a bucket, and whole
     * buckets are placed on the lightest shard (longest-processing-time
     * greedy on vertices + edges). Keeps co-neighborhoods on one shard,
     * so the cut stays small on clustered graphs and the owned order
     * doubles as a shard-local locality order.
     */
    Greedy,
    /** Deterministic hash of the vertex id: the edge-cut baseline. */
    Hash,
};

/** Strategy name for tables and CLI round-trips ("greedy" / "hash"). */
const char *partitionStrategyName(PartitionStrategy strategy);

/**
 * Parse a --partition value ("greedy" or "hash", case-sensitive).
 * @return false when @p text names no known strategy (@p out untouched).
 */
bool parsePartitionStrategy(const std::string &text, PartitionStrategy &out);

/** Shard identifier (dense, < PartitionPlan::numShards()). */
using ShardId = std::uint32_t;

/** One cache slice of a PartitionPlan. */
struct Shard
{
    /**
     * Global ids of this shard's vertices: the numOwned owned vertices
     * first (in shard-local processing order), then the halo vertices
     * (owned elsewhere, read by this shard's cut edges) in first-use
     * order.
     */
    std::vector<VertexId> vertices;
    /** Owned-vertex count; vertices[i] with i >= numOwned are halo. */
    VertexId numOwned = 0;
    /** Edges whose endpoint is owned by this shard. */
    EdgeId intraEdges = 0;
    /** Edges whose endpoint is a halo vertex (owned elsewhere). */
    EdgeId cutEdges = 0;

    /** Halo (replicated boundary) vertex count. */
    VertexId
    numHalo() const
    {
        return static_cast<VertexId>(vertices.size()) - numOwned;
    }

    /** Global ids of the owned vertices, in shard-local order. */
    std::span<const VertexId>
    owned() const
    {
        return {vertices.data(), numOwned};
    }

    /** Global ids of the halo vertices. */
    std::span<const VertexId>
    halo() const
    {
        return {vertices.data() + numOwned, numHalo()};
    }
};

/**
 * A K-way vertex partition of one CsrGraph with everything shard-major
 * execution needs precomputed: the owner map, the concatenated
 * shard-major processing order with each shard's run, and cut/halo
 * accounting. Built by makePartitionPlan (partitioner.h); immutable in
 * use, like the CsrGraph it slices.
 */
struct PartitionPlan
{
    /** The partitioned graph (not owned; must outlive the plan). */
    const CsrGraph *graph = nullptr;
    PartitionStrategy strategy = PartitionStrategy::Greedy;
    std::vector<Shard> shards;
    /** shardOf[v] = the shard owning global vertex v (|V| entries). */
    std::vector<ShardId> shardOf;
    /**
     * Concatenation of every shard's owned order: the processing order
     * shard-major execution follows, also usable directly as the order
     * argument of the global kernels and the sim's LayerWorkload.
     */
    ProcessingOrder shardMajorOrder;
    /**
     * ownedStart[s] = offset of shard s's owned run in shardMajorOrder
     * (K+1 entries); shard tasks are carved from these at kernel entry.
     */
    std::vector<std::size_t> ownedStart;

    std::size_t numShards() const { return shards.size(); }

    /** Sum of per-shard cut edges (each global edge counted once). */
    EdgeId totalCutEdges() const;

    /** Sum of per-shard halo lists — total replicated rows. */
    VertexId totalHaloVertices() const;

    /** Cut edges as a fraction of all edges (0 when edgeless). */
    double cutEdgeRatio() const;

    /**
     * Estimated bytes one aggregation pass gathers at @p rowBytes per
     * feature row: a row per edge plus the self term, the same under
     * every schedule.
     */
    Bytes estimatedGatherBytes(Bytes rowBytes) const;

    /**
     * Structure check of every plan invariant: the owned runs partition
     * the vertex set and agree with shardOf, shardMajorOrder is the owned
     * concatenation, each shard's intra/cut edge counts match its owned
     * rows, and its halo list is exactly its cross-shard fan-in, each
     * vertex listed once. O(|V| + |E|) time and scratch.
     *
     * @return nullptr when valid, else a static message naming the
     *         violated invariant (the validateDescriptor() convention).
     */
    const char *validate() const;
};

} // namespace graphite
