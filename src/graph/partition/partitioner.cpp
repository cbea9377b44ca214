#include "graph/partition/partitioner.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace graphite {

namespace {

constexpr ShardId kNoShard = ~ShardId{0};

/** splitmix64 finaliser: the deterministic hash of the Hash strategy. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Hash assignment: owned lists in ascending id order. */
void
assignHash(const CsrGraph &graph, std::uint64_t seed,
           std::vector<Shard> &shards)
{
    const VertexId n = graph.numVertices();
    const std::size_t k = shards.size();
    for (VertexId v = 0; v < n; ++v)
        shards[splitmix64(seed ^ v) % k].vertices.push_back(v);
}

/**
 * Greedy assignment: Algorithm 3's buckets (each vertex joins its
 * highest-degree neighbor's bucket), placed whole on the lightest
 * shard, heaviest bucket first. Bucket members stay contiguous in the
 * owned order, so each shard's run doubles as a shard-local locality
 * order.
 */
void
assignGreedy(const CsrGraph &graph, std::vector<Shard> &shards)
{
    const VertexId n = graph.numVertices();
    const std::size_t k = shards.size();
    // Bucket u is the contiguous slice memberAt[bucketStart[u],
    // bucketStart[u+1]) of the locality order.
    const LocalityBuckets locality = localityBuckets(graph);
    const ProcessingOrder &memberAt = locality.order;
    const std::vector<std::size_t> &bucketStart = locality.bucketStart;
    // Longest-processing-time placement of whole buckets. A bucket's
    // cost models its aggregation work: one self row plus one gathered
    // row per edge of each member.
    struct Bucket
    {
        VertexId rep;
        std::uint64_t weight;
    };
    std::vector<Bucket> buckets;
    for (VertexId u = 0; u < n; ++u) {
        if (bucketStart[u] == bucketStart[u + 1])
            continue;
        std::uint64_t weight = 0;
        for (std::size_t i = bucketStart[u]; i < bucketStart[u + 1]; ++i)
            weight += 1 + graph.degree(memberAt[i]);
        buckets.push_back({u, weight});
    }
    std::stable_sort(buckets.begin(), buckets.end(),
                     [](const Bucket &a, const Bucket &b) {
                         if (a.weight != b.weight)
                             return a.weight > b.weight;
                         return a.rep < b.rep;
                     });
    using Load = std::pair<std::uint64_t, std::size_t>;
    std::priority_queue<Load, std::vector<Load>, std::greater<>> lightest;
    for (std::size_t s = 0; s < k; ++s)
        lightest.push({0, s});
    for (const Bucket &bucket : buckets) {
        auto [load, s] = lightest.top();
        lightest.pop();
        Shard &shard = shards[s];
        for (std::size_t i = bucketStart[bucket.rep];
             i < bucketStart[bucket.rep + 1]; ++i)
            shard.vertices.push_back(memberAt[i]);
        lightest.push({load + bucket.weight, s});
    }
}

/**
 * From prefilled owned lists, build the maps, the shard-major order,
 * and each shard's local CSR (intra edges first per row, then cut
 * edges with halo ids allocated in first-use order).
 */
void
finalisePlan(const CsrGraph &graph, PartitionPlan &plan)
{
    const VertexId n = graph.numVertices();
    const std::size_t k = plan.shards.size();
    plan.shardOf.assign(n, 0);
    plan.localIdOf.assign(n, 0);
    plan.shardMajorOrder.clear();
    plan.shardMajorOrder.reserve(n);
    plan.ownedStart.assign(k + 1, 0);
    for (std::size_t s = 0; s < k; ++s) {
        Shard &shard = plan.shards[s];
        shard.numOwned = static_cast<VertexId>(shard.vertices.size());
        plan.ownedStart[s + 1] = plan.ownedStart[s] + shard.numOwned;
        for (VertexId i = 0; i < shard.numOwned; ++i) {
            const VertexId v = shard.vertices[i];
            plan.shardOf[v] = static_cast<ShardId>(s);
            plan.localIdOf[v] = i;
            plan.shardMajorOrder.push_back(v);
        }
    }
    GRAPHITE_ASSERT(plan.shardMajorOrder.size() == n,
                    "owned lists must cover every vertex exactly once");

    // The stamp pair resolves repeat halo references in O(1) without
    // per-shard clearing: an entry is only trusted when stampShard
    // matches the shard being built.
    std::vector<ShardId> stampShard(n, kNoShard);
    std::vector<VertexId> stampLocal(n, 0);
    for (std::size_t s = 0; s < k; ++s) {
        Shard &shard = plan.shards[s];
        const ShardId sid = static_cast<ShardId>(s);
        std::vector<EdgeId> rowPtr;
        std::vector<VertexId> colIdx;
        rowPtr.reserve(shard.numOwned + 1);
        rowPtr.push_back(0);
        shard.globalEdge.clear();
        shard.cutStart.assign(shard.numOwned, 0);
        shard.intraEdges = 0;
        shard.cutEdges = 0;
        for (VertexId r = 0; r < shard.numOwned; ++r) {
            const VertexId v = shard.vertices[r];
            for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
                const VertexId u = graph.colIdx()[e];
                if (plan.shardOf[u] != sid)
                    continue;
                colIdx.push_back(plan.localIdOf[u]);
                shard.globalEdge.push_back(e);
                ++shard.intraEdges;
            }
            shard.cutStart[r] = colIdx.size();
            for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
                const VertexId u = graph.colIdx()[e];
                if (plan.shardOf[u] == sid)
                    continue;
                if (stampShard[u] != sid) {
                    stampShard[u] = sid;
                    stampLocal[u] =
                        static_cast<VertexId>(shard.vertices.size());
                    shard.vertices.push_back(u);
                }
                colIdx.push_back(stampLocal[u]);
                shard.globalEdge.push_back(e);
                ++shard.cutEdges;
            }
            rowPtr.push_back(colIdx.size());
        }
        // Empty halo rows make every local id a valid CSR row.
        rowPtr.resize(shard.vertices.size() + 1, colIdx.size());
        shard.localCsr = CsrGraph(std::move(rowPtr), std::move(colIdx));
    }
}

} // namespace

PartitionPlan
makePartitionPlan(const CsrGraph &graph, const PartitionConfig &config)
{
    GRAPHITE_TRACE_SPAN("partition.plan");
    PartitionPlan plan;
    plan.graph = &graph;
    plan.strategy = config.strategy;
    plan.shards.resize(std::max<std::size_t>(1, config.numShards));
    if (config.strategy == PartitionStrategy::Hash)
        assignHash(graph, config.seed, plan.shards);
    else
        assignGreedy(graph, plan.shards);
    finalisePlan(graph, plan);

    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    static obs::Gauge &shardsGauge = metrics.gauge("partition.shards");
    static obs::Gauge &cutGauge = metrics.gauge("partition.cut_edges");
    static obs::Gauge &haloGauge = metrics.gauge("partition.halo_vertices");
    shardsGauge.set(static_cast<double>(plan.numShards()));
    cutGauge.set(static_cast<double>(plan.totalCutEdges()));
    haloGauge.set(static_cast<double>(plan.totalHaloVertices()));
    return plan;
}

} // namespace graphite
