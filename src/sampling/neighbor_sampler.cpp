#include "sampling/neighbor_sampler.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "graph/delta_csr.h"

namespace graphite {

template <GraphView G>
void
sampleMiniBatch(const G &graph, std::span<const VertexId> seeds,
                std::span<const VertexId> fanouts, Rng &rng,
                SamplerScratch &scratch, SampledTree &tree,
                EdgeId leafDegree)
{
    GRAPHITE_ASSERT(!fanouts.empty(), "need at least one layer fanout");
    for (const VertexId seed : seeds)
        GRAPHITE_ASSERT(seed < graph.numVertices(),
                        "sampleMiniBatch: seed out of range");
    if (tree.blocks.size() != fanouts.size())
        tree.blocks.resize(fanouts.size());

    // Build outermost-first: layer K's destinations are the seeds, each
    // inner layer's destinations are the outer layer's sources.
    for (std::size_t k = fanouts.size(); k-- > 0;) {
        FlatBlock &block = tree.blocks[k];
        block.rowPtr.clear();
        block.colIdx.clear();
        block.srcVertices.clear();
        if (k + 1 == fanouts.size()) {
            block.dstVertices.assign(seeds.begin(), seeds.end());
        } else {
            const std::vector<VertexId> &outerSrc =
                tree.blocks[k + 1].srcVertices;
            block.dstVertices.assign(outerSrc.begin(), outerSrc.end());
        }

        // Destinations occupy local source indices [0, |dst|), so the
        // self term needs no lookup.
        scratch.beginBlock();
        for (const VertexId v : block.dstVertices) {
            GRAPHITE_DCHECK(scratch.stamp_[v] != scratch.epoch_,
                            "sampleMiniBatch: seeds must be distinct");
            scratch.stamp_[v] = scratch.epoch_;
            scratch.local_[v] =
                static_cast<VertexId>(block.srcVertices.size());
            block.srcVertices.push_back(v);
        }

        const VertexId fanout = fanouts[k];
        // The cut-off applies to innermost rows only; 0 disables it.
        const EdgeId leaf = k == 0 ? leafDegree : 0;
        if (scratch.picks_.size() < fanout)
            scratch.picks_.resize(fanout);
        EdgeId *const picks = scratch.picks_.data();

        // Append neighbor u to the current destination's row, giving it
        // a local index on first sight.
        const auto take = [&](VertexId u) {
            if (scratch.stamp_[u] != scratch.epoch_) {
                scratch.stamp_[u] = scratch.epoch_;
                scratch.local_[u] =
                    static_cast<VertexId>(block.srcVertices.size());
                block.srcVertices.push_back(u);
            }
            block.colIdx.push_back(scratch.local_[u]);
        };

        block.rowPtr.push_back(0);
        for (const VertexId v : block.dstVertices) {
            const auto neighbors = graph.neighbors(v);
            const std::size_t degree = neighbors.size();
            if (leaf != 0 && degree >= leaf) {
                // Left unexpanded: the caller aggregates this row whole.
            } else if (degree <= fanout) {
                for (std::size_t j = 0; j < degree; ++j)
                    take(neighbors[j]);
            } else {
                // Floyd's algorithm: `fanout` distinct row positions,
                // uniform without replacement, in `fanout` draws. For
                // each j of the last `fanout` positions draw t in
                // [0, j]; take t, or j if t is already taken (j exceeds
                // every earlier pick). The picks stay sorted by
                // insertion. At sampling fan-outs a branch-free scan
                // and a shift beat a binary search plus memmove; the
                // insert is O(fanout) either way.
                std::size_t count = 0;
                for (std::size_t j = degree - fanout; j < degree; ++j) {
                    const EdgeId t = rng.uniformInt(j + 1);
                    bool taken = false;
                    for (std::size_t i = 0; i < count; ++i)
                        taken |= picks[i] == t;
                    const EdgeId pick = taken ? j : t;
                    std::size_t i = count++;
                    for (; i > 0 && picks[i - 1] > pick; --i)
                        picks[i] = picks[i - 1];
                    picks[i] = pick;
                }
                // Ascending positions: a DeltaCsr row's chain cursor
                // then only moves forward.
                for (std::size_t i = 0; i < count; ++i)
                    take(neighbors[picks[i]]);
            }
            block.rowPtr.push_back(
                static_cast<EdgeId>(block.colIdx.size()));
        }
    }
}

template void sampleMiniBatch(const CsrGraph &, std::span<const VertexId>,
                              std::span<const VertexId>, Rng &,
                              SamplerScratch &, SampledTree &, EdgeId);
template void sampleMiniBatch(const DeltaCsr &, std::span<const VertexId>,
                              std::span<const VertexId>, Rng &,
                              SamplerScratch &, SampledTree &, EdgeId);

DenseMatrix
gatherBatchFeatures(const DenseMatrix &features,
                    const std::vector<VertexId> &vertices)
{
    DenseMatrix out(vertices.size(), features.cols());
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        std::memcpy(out.row(i), features.row(vertices[i]),
                    features.rowStride() * sizeof(Feature));
    }
    return out;
}

std::uint64_t
requestSeed(std::uint64_t requestId)
{
    // splitmix64 finalizer: a bijective avalanche so consecutive request
    // ids yield statistically independent sampling streams.
    std::uint64_t z = requestId + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<std::vector<VertexId>>
makeEpochBatches(const CsrGraph &graph, std::size_t batchSize, Rng &rng)
{
    GRAPHITE_ASSERT(batchSize > 0, "batch size must be positive");
    std::vector<VertexId> all(graph.numVertices());
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        all[v] = v;
    for (std::size_t i = all.size(); i > 1; --i)
        std::swap(all[i - 1], all[rng.uniformInt(i)]);
    std::vector<std::vector<VertexId>> batches;
    for (std::size_t begin = 0; begin < all.size(); begin += batchSize) {
        const std::size_t end = std::min(begin + batchSize, all.size());
        batches.emplace_back(all.begin() + begin, all.begin() + end);
    }
    return batches;
}

} // namespace graphite
