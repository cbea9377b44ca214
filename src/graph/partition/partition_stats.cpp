#include "graph/partition/partition_stats.h"

#include <algorithm>
#include <cstdio>

namespace graphite {

PartitionStats
computePartitionStats(const PartitionPlan &plan)
{
    PartitionStats stats;
    stats.numShards = plan.numShards();
    if (plan.graph == nullptr || plan.shards.empty())
        return stats;
    stats.cutEdges = plan.totalCutEdges();
    stats.cutEdgeRatio = plan.cutEdgeRatio();
    stats.haloVertices = plan.totalHaloVertices();
    const VertexId n = plan.graph->numVertices();
    stats.haloRatio =
        n > 0 ? static_cast<double>(stats.haloVertices) / n : 0.0;

    stats.minOwned = n;
    std::uint64_t maxLoad = 0;
    std::uint64_t totalLoad = 0;
    for (const Shard &shard : plan.shards) {
        stats.minOwned = std::min(stats.minOwned, shard.numOwned);
        stats.maxOwned = std::max(stats.maxOwned, shard.numOwned);
        const std::uint64_t load =
            shard.numOwned + shard.intraEdges + shard.cutEdges;
        maxLoad = std::max(maxLoad, load);
        totalLoad += load;
    }
    if (totalLoad > 0) {
        const double mean = static_cast<double>(totalLoad) /
                            static_cast<double>(stats.numShards);
        stats.loadImbalance = static_cast<double>(maxLoad) / mean;
    }
    return stats;
}

std::string
formatPartitionStats(const PartitionStats &stats,
                     PartitionStrategy strategy)
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "partition  K=%-3zu strat=%-6s cut=%-11llu "
                  "cutRatio=%-6.3f halo=%-9u haloRatio=%-6.3f "
                  "owned=[%u,%u] imbalance=%.2f",
                  stats.numShards, partitionStrategyName(strategy),
                  static_cast<unsigned long long>(stats.cutEdges),
                  stats.cutEdgeRatio, stats.haloVertices, stats.haloRatio,
                  stats.minOwned, stats.maxOwned, stats.loadImbalance);
    return line;
}

} // namespace graphite
