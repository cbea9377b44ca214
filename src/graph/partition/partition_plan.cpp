#include "graph/partition/partition_plan.h"

namespace graphite {

const char *
partitionStrategyName(PartitionStrategy strategy)
{
    return strategy == PartitionStrategy::Hash ? "hash" : "greedy";
}

bool
parsePartitionStrategy(const std::string &text, PartitionStrategy &out)
{
    if (text == "greedy") {
        out = PartitionStrategy::Greedy;
        return true;
    }
    if (text == "hash") {
        out = PartitionStrategy::Hash;
        return true;
    }
    return false;
}

EdgeId
PartitionPlan::totalCutEdges() const
{
    EdgeId total = 0;
    for (const Shard &shard : shards)
        total += shard.cutEdges;
    return total;
}

VertexId
PartitionPlan::totalHaloVertices() const
{
    VertexId total = 0;
    for (const Shard &shard : shards)
        total += shard.numHalo();
    return total;
}

double
PartitionPlan::cutEdgeRatio() const
{
    if (graph == nullptr || graph->numEdges() == 0)
        return 0.0;
    return static_cast<double>(totalCutEdges()) /
           static_cast<double>(graph->numEdges());
}

Bytes
PartitionPlan::estimatedGatherBytes(Bytes rowBytes) const
{
    if (graph == nullptr)
        return 0;
    return (Bytes{graph->numVertices()} + graph->numEdges()) * rowBytes;
}

const char *
PartitionPlan::validate() const
{
    if (graph == nullptr)
        return "plan references no graph";
    if (shards.empty())
        return "plan has no shards";
    const VertexId n = graph->numVertices();
    const std::size_t k = shards.size();
    if (shardOf.size() != n)
        return "shardOf size differs from |V|";
    if (shardMajorOrder.size() != n)
        return "shardMajorOrder size differs from |V|";
    if (ownedStart.size() != k + 1 || ownedStart.front() != 0)
        return "ownedStart is not a K+1 prefix starting at 0";

    // Owned runs tile the shard-major order, and every vertex is owned
    // exactly once, by the shard shardOf names.
    std::vector<std::uint8_t> owned(n, 0);
    for (std::size_t s = 0; s < k; ++s) {
        const Shard &shard = shards[s];
        if (shard.numOwned > shard.vertices.size())
            return "shard owns more vertices than it lists";
        if (ownedStart[s + 1] - ownedStart[s] != shard.numOwned)
            return "ownedStart run length differs from shard numOwned";
        if (ownedStart[s + 1] > n)
            return "owned runs overrun the vertex set";
        for (VertexId i = 0; i < shard.numOwned; ++i) {
            const VertexId v = shard.vertices[i];
            if (shardMajorOrder[ownedStart[s] + i] != v)
                return "shardMajorOrder diverges from owned lists";
            if (v >= n)
                return "shard vertex id out of range";
            if (owned[v])
                return "vertex owned twice";
            owned[v] = 1;
            if (shardOf[v] != s)
                return "shardOf disagrees with the owning shard";
        }
    }
    if (ownedStart.back() != n)
        return "owned runs do not cover all vertices";

    // Per shard: edge accounting against the global CSR, and the halo
    // list is exactly the cross-shard fan-in, each vertex listed once.
    // haloMark[u] is 1 while u is listed in the current shard's halo
    // and 2 once a cut edge has read it; it is reset after each shard.
    std::vector<std::uint8_t> haloMark(n, 0);
    for (std::size_t s = 0; s < k; ++s) {
        const Shard &shard = shards[s];
        for (VertexId h : shard.halo()) {
            if (h >= n)
                return "shard vertex id out of range";
            if (shardOf[h] == s)
                return "halo vertex is owned by its own shard";
            if (haloMark[h] != 0)
                return "halo vertex listed twice";
            haloMark[h] = 1;
        }
        EdgeId intra = 0;
        EdgeId cut = 0;
        for (VertexId v : shard.owned()) {
            for (VertexId u : graph->neighbors(v)) {
                if (shardOf[u] == s) {
                    ++intra;
                    continue;
                }
                if (haloMark[u] == 0)
                    return "cut edge reads a vertex missing from the halo";
                haloMark[u] = 2;
                ++cut;
            }
        }
        if (intra != shard.intraEdges || cut != shard.cutEdges)
            return "shard edge accounting mismatch";
        for (VertexId h : shard.halo()) {
            if (haloMark[h] != 2)
                return "halo vertex referenced by no cut edge";
            haloMark[h] = 0;
        }
    }
    return nullptr;
}

} // namespace graphite
