/**
 * @file
 * Neighborhood sampling and mini-batch block construction (paper
 * Section 2.1, Eq. 3) — the GPU-era workaround whose CPU-side overhead
 * motivates full-batch CPU execution (paper Figure 2).
 *
 * For a mini-batch of seed vertices and per-layer fan-outs, we build the
 * K-hop sampled neighborhood bottom-up the way DGL does: layer K's
 * destination set is the seeds; each layer's source set is its
 * destination set plus up-to-fanout sampled neighbors per destination;
 * the per-layer bipartite block stores the sampled edges re-indexed into
 * the compact source set. Finally the input features of the innermost
 * source set are gathered into a dense batch matrix (the
 * "mini-batching" copy cost).
 *
 * One sampler serves training and serving alike: sampleMiniBatch is the
 * core, sampleTree is the one-seed case the server draws per request.
 * Both are templates over GraphView, so a DeltaCsr overlay samples
 * through the same code as a frozen CsrGraph.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/csr_graph.h"
#include "graph/graph_view.h"
#include "tensor/dense_matrix.h"

namespace graphite {

/**
 * One sampled bipartite layer held as flat arrays. No CsrGraph is
 * constructed; the vectors reuse their capacity across batches and
 * requests once warmed up.
 *
 * dstVertices is a prefix of srcVertices (local source index i < |dst|
 * is destination i), rowPtr has |dst|+1 entries, and colIdx holds local
 * source indices in first-seen order.
 */
struct FlatBlock
{
    std::vector<EdgeId> rowPtr;
    std::vector<VertexId> colIdx;
    std::vector<VertexId> dstVertices;
    std::vector<VertexId> srcVertices;

    /** Sampled local source indices of local destination @p d. */
    std::span<const VertexId>
    neighbors(std::size_t d) const
    {
        return {colIdx.data() + rowPtr[d], colIdx.data() + rowPtr[d + 1]};
    }
};

/** A K-layer sampled neighborhood; blocks[0] is the input-most layer. */
struct SampledTree
{
    std::vector<FlatBlock> blocks;
    /** Global ids whose input features the tree needs (innermost srcs). */
    const std::vector<VertexId> &inputVertices() const
    {
        return blocks.front().srcVertices;
    }
};

class SamplerScratch;

/**
 * SAMPLE_k over all K layers for one mini-batch, into reusable flat
 * blocks. Layer K's destination set is @p seeds; each layer's source
 * set is its destination set plus up to fanouts[k] sampled neighbors
 * per destination. A vertex with degree <= fanout keeps all neighbors
 * in row order; a larger row draws fanouts[k] distinct positions,
 * uniform without replacement, with Floyd's algorithm — fanouts[k]
 * RNG draws whatever the degree — and lists them in ascending row
 * position. @p tree's vectors are clear()ed and refilled, retaining
 * capacity, so a warmed tree+scratch pair samples with zero heap
 * allocations.
 *
 * Precondition: @p seeds are distinct (checked under GRAPHITE_CHECKS).
 * A repeated seed would share one local index.
 *
 * @param fanouts    per-layer sample sizes, innermost first.
 * @param leafDegree innermost-layer cut-off: a blocks[0] destination of
 *                   degree >= leafDegree gets an empty row and draws no
 *                   RNG numbers (the server aggregates such hubs whole,
 *                   or serves them from its cache). 0 expands every row,
 *                   and the tree is then the same as without a cut-off.
 */
template <GraphView G>
void sampleMiniBatch(const G &graph, std::span<const VertexId> seeds,
                     std::span<const VertexId> fanouts, Rng &rng,
                     SamplerScratch &scratch, SampledTree &tree,
                     EdgeId leafDegree = 0);

/**
 * Reusable working state of the sampler: a stamped global→local index
 * map sized |V| (no per-call hashing or node allocation) and the
 * fanout-sized buffer of one destination's sampled positions. One scratch
 * serves one sampling thread; it may be reused across graphs only if
 * re-constructed for the larger vertex count.
 */
class SamplerScratch
{
  public:
    explicit SamplerScratch(VertexId numVertices)
        : local_(numVertices, 0), stamp_(numVertices, 0)
    {
    }

  private:
    template <GraphView G>
    friend void sampleMiniBatch(const G &graph,
                                std::span<const VertexId> seeds,
                                std::span<const VertexId> fanouts,
                                Rng &rng, SamplerScratch &scratch,
                                SampledTree &tree, EdgeId leafDegree);

    /** Start a new dedup domain; O(1) except on 32-bit epoch wrap. */
    void
    beginBlock()
    {
        if (++epoch_ == 0) {
            std::fill(stamp_.begin(), stamp_.end(), 0U);
            epoch_ = 1;
        }
    }

    std::vector<VertexId> local_;      ///< local index, valid iff stamped
    std::vector<std::uint32_t> stamp_; ///< epoch that wrote local_[v]
    std::uint32_t epoch_ = 0;
    std::vector<EdgeId> picks_;        ///< sorted sampled row positions
};

/**
 * sampleMiniBatch for the single seed @p seed: the serving path's
 * per-request tree. A vertex with no delta edges samples the same tree
 * on a DeltaCsr overlay as on its base graph, which is what makes an
 * overlay holding zero deltas bitwise-interchangeable with its base.
 */
template <GraphView G>
void
sampleTree(const G &graph, VertexId seed, std::span<const VertexId> fanouts,
           Rng &rng, SamplerScratch &scratch, SampledTree &tree,
           EdgeId leafDegree = 0)
{
    sampleMiniBatch(graph, std::span<const VertexId>(&seed, 1), fanouts,
                    rng, scratch, tree, leafDegree);
}

/**
 * Gather the batch's input feature rows into a dense contiguous matrix
 * (the host-to-device staging copy in a CPU-GPU pipeline).
 */
DenseMatrix gatherBatchFeatures(const DenseMatrix &features,
                                const std::vector<VertexId> &vertices);

/**
 * Partition [0, |V|) into shuffled mini-batches of @p batchSize seeds.
 */
std::vector<std::vector<VertexId>> makeEpochBatches(const CsrGraph &graph,
                                                    std::size_t batchSize,
                                                    Rng &rng);

/**
 * Deterministic per-request RNG seed: splitmix64 of the request id.
 * Serving samples each request's neighborhood with Rng(requestSeed(id)),
 * so an offline replay of the same request id reproduces the sampled
 * tree bit-for-bit regardless of which batch the request landed in.
 */
std::uint64_t requestSeed(std::uint64_t requestId);

} // namespace graphite
