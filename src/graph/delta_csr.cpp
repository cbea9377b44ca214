#include "graph/delta_csr.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace graphite {

DeltaCsr::DeltaCsr(CsrGraph base, EdgeId maxDeltaEdges)
    : base_(std::move(base)), maxDeltaEdges_(maxDeltaEdges),
      baseRowsSorted_(base_.rowsSorted()),
      deltaEdgeCounter_(
          obs::MetricsRegistry::global().counter("graph.delta_edges"))
{
    GRAPHITE_ASSERT(base_.numVertices() > 0,
                    "DeltaCsr: base graph must have vertices");
    vertices_ =
        std::make_unique<VertexDelta[]>(base_.numVertices());
    // Worst case every vertex's chain wastes a partially filled tail
    // segment, so the pool must cover maxDeltaEdges spread one edge per
    // vertex. Sized once here; addEdge never allocates.
    poolSize_ = static_cast<std::size_t>(maxDeltaEdges_ + kSegmentEdges -
                                         1) /
                kSegmentEdges;
    poolSize_ += base_.numVertices();
    pool_ = std::make_unique<Segment[]>(poolSize_);
}

bool
DeltaCsr::edgeExists(VertexId src, VertexId dst) const
{
    const std::span<const VertexId> row = base_.neighbors(src);
    if (baseRowsSorted_) {
        if (std::binary_search(row.begin(), row.end(), dst))
            return true;
    } else {
        if (std::find(row.begin(), row.end(), dst) != row.end())
            return true;
    }
    bool found = false;
    forEachDeltaNeighbor(src, [&](VertexId neighbor) {
        found = found || neighbor == dst;
    });
    return found;
}

DeltaCsr::AddEdge
DeltaCsr::addEdge(VertexId src, VertexId dst)
{
    GRAPHITE_ASSERT(src < numVertices() && dst < numVertices(),
                    "addEdge: vertex out of range");
    if (src == dst)
        return AddEdge::SelfLoop;

    MutexLock lock(writerMutex_);
    if (deltaEdges_.load(std::memory_order_relaxed) >= maxDeltaEdges_)
        return AddEdge::PoolFull;
    if (edgeExists(src, dst))
        return AddEdge::Duplicate;
    appendEdge(src, dst);
    deltaEdgeCounter_.add(1);
    return AddEdge::Added;
}

void
DeltaCsr::appendEdge(VertexId src, VertexId dst)
{
    VertexDelta &delta = vertices_[src];
    const EdgeId count = delta.count.load(std::memory_order_relaxed);
    const std::size_t slot =
        static_cast<std::size_t>(count) % kSegmentEdges;
    if (slot == 0) {
        // Chain needs a fresh segment. The pool is sized so this cannot
        // run dry before addEdge's delta budget check trips.
        GRAPHITE_ASSERT(poolCursor_ < poolSize_,
                        "appendEdge: segment pool exhausted");
        const auto seg = static_cast<std::uint32_t>(poolCursor_++);
        pool_[seg].next.store(kNullSegment, std::memory_order_relaxed);
        pool_[seg].edges[0] = dst;
        if (count == 0) {
            // First delta edge: link the head before publishing.
            delta.head.store(seg, std::memory_order_relaxed);
        } else {
            pool_[delta.tail].next.store(seg,
                                         std::memory_order_release);
        }
        delta.tail = seg;
    } else {
        pool_[delta.tail].edges[slot] = dst;
    }
    // Publish: readers acquire-load count, so the edge value and chain
    // links above happen-before any reader that observes count+1.
    delta.count.store(count + 1, std::memory_order_release);
    deltaEdges_.fetch_add(1, std::memory_order_release);
}

DeltaCsr::RowView
DeltaCsr::neighbors(VertexId v) const
{
    GRAPHITE_DCHECK(v < numVertices(), "neighbors: vertex out of range");
    const VertexDelta &delta = vertices_[v];
    RowView view;
    view.graph_ = this;
    const std::span<const VertexId> row = base_.neighbors(v);
    view.base_ = row.data();
    view.baseSize_ = row.size();
    view.deltaCount_ = static_cast<std::size_t>(
        delta.count.load(std::memory_order_acquire));
    view.head_ = delta.head.load(std::memory_order_relaxed);
    view.cursorSeg_ = view.head_;
    view.cursorBase_ = 0;
    return view;
}

VertexId
DeltaCsr::deltaNeighborAt(const RowView &view, std::size_t i) const
{
    GRAPHITE_DCHECK(i < view.deltaCount_,
                    "deltaNeighborAt: index out of range");
    // Random access restarts from the head; sequential access (the
    // sampler's pattern) advances the cursor one segment at a time.
    if (i < view.cursorBase_) {
        view.cursorSeg_ = view.head_;
        view.cursorBase_ = 0;
    }
    while (i >= view.cursorBase_ + kSegmentEdges) {
        GRAPHITE_DCHECK(view.cursorSeg_ != kNullSegment,
                        "deltaNeighborAt: chain shorter than count");
        view.cursorSeg_ = pool_[view.cursorSeg_].next.load(
            std::memory_order_acquire);
        view.cursorBase_ += kSegmentEdges;
    }
    GRAPHITE_DCHECK(view.cursorSeg_ != kNullSegment,
                    "deltaNeighborAt: chain shorter than count");
    return pool_[view.cursorSeg_].edges[i - view.cursorBase_];
}

CsrGraph
DeltaCsr::compacted() const
{
    // Each published count is acquire-loaded exactly once, here: a
    // concurrent addEdge may publish more, but this row copies only the
    // prefix it sized, and published entries never move.
    const VertexId n = numVertices();
    std::vector<EdgeId> rowPtr(static_cast<std::size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v)
        rowPtr[v + 1] = rowPtr[v] + degree(v);
    std::vector<VertexId> colIdx(static_cast<std::size_t>(rowPtr[n]));
    for (VertexId v = 0; v < n; ++v) {
        VertexId *const out = colIdx.data() + rowPtr[v];
        VertexId *const end = colIdx.data() + rowPtr[v + 1];
        const std::span<const VertexId> row = base_.neighbors(v);
        VertexId *cursor = std::copy(row.begin(), row.end(), out);
        forEachDeltaRun(v, static_cast<EdgeId>(end - cursor),
                        [&](const VertexId *edges, EdgeId count) {
                            cursor = std::copy_n(edges, count, cursor);
                        });
        // GraphBuilder emits sorted rows; match it so compaction is
        // bitwise-identical to a from-scratch build of the edge set.
        std::sort(out, end);
    }
    CsrGraph graph(std::move(rowPtr), std::move(colIdx));
    GRAPHITE_ASSERT(graph.validate() == nullptr,
                    "compacted: merged CSR failed validation");
    return graph;
}

void
DeltaCsr::installCompacted(CsrGraph snapshot)
{
    MutexLock lock(writerMutex_);
    const VertexId n = numVertices();
    GRAPHITE_ASSERT(snapshot.numVertices() == n,
                    "installCompacted: snapshot vertex count differs");
    // A snapshot row holds the base row plus the first
    // (snapshot degree - base degree) chain entries; everything past
    // that was published during the build and is carried over.
    std::vector<std::pair<VertexId, VertexId>> carried;
    for (VertexId v = 0; v < n; ++v) {
        const EdgeId baseDegree = base_.degree(v);
        // graphite-lint: allow(assert) compaction is cold: one check
        // per vertex per install, not per edge insert.
        GRAPHITE_ASSERT(snapshot.degree(v) >= baseDegree,
                        "installCompacted: snapshot row below its base");
        const EdgeId seen = snapshot.degree(v) - baseDegree;
        const EdgeId live =
            vertices_[v].count.load(std::memory_order_relaxed);
        // graphite-lint: allow(assert) cold, as above.
        GRAPHITE_ASSERT(seen <= live,
                        "installCompacted: snapshot ahead of the overlay");
        if (seen == live)
            continue;
        EdgeId index = 0;
        forEachDeltaRun(v, live, [&](const VertexId *edges, EdgeId count) {
            for (EdgeId i = 0; i < count; ++i, ++index) {
                if (index < seen)
                    continue;
                // graphite-lint: allow(alloc) compaction allocates; the
                // insert path does not.
                carried.emplace_back(v, edges[i]);
            }
        });
    }

    base_ = std::move(snapshot);
    baseRowsSorted_ = true;
    for (VertexId v = 0; v < n; ++v) {
        VertexDelta &delta = vertices_[v];
        delta.count.store(0, std::memory_order_relaxed);
        delta.head.store(kNullSegment, std::memory_order_relaxed);
        delta.tail = kNullSegment;
    }
    poolCursor_ = 0;
    deltaEdges_.store(0, std::memory_order_release);
    // addEdge checked each carried edge against base + delta when it
    // was inserted, so none duplicates the new base or another.
    for (const auto &[src, dst] : carried)
        appendEdge(src, dst);
    static obs::Counter &compactionCounter =
        obs::MetricsRegistry::global().counter("graph.compactions");
    compactionCounter.add(1);
}

void
DeltaCsr::compact()
{
    if (deltaEdges() == 0)
        return;
    installCompacted(compacted());
}

const char *
DeltaCsr::validate() const
{
    const char *baseError = base_.validate();
    if (baseError != nullptr)
        return baseError;
    EdgeId total = 0;
    std::vector<VertexId> seen;
    for (VertexId v = 0; v < numVertices(); ++v) {
        const EdgeId count = deltaDegree(v);
        total += count;
        seen.clear();
        bool chainOk = true;
        forEachDeltaNeighbor(v, [&](VertexId neighbor) {
            if (neighbor >= numVertices())
                chainOk = false;
            // graphite-lint: allow(alloc) validation is a cold
            // diagnostic; the vector is reused across vertices.
            seen.push_back(neighbor);
        });
        if (!chainOk)
            return "delta neighbor id out of range";
        if (seen.size() != count)
            return "delta chain length disagrees with published count";
        for (const VertexId neighbor : seen) {
            if (neighbor == v)
                return "delta chain contains a self-loop";
        }
        std::sort(seen.begin(), seen.end());
        if (std::adjacent_find(seen.begin(), seen.end()) != seen.end())
            return "duplicate neighbor within a delta chain";
        const std::span<const VertexId> row = base_.neighbors(v);
        for (const VertexId neighbor : seen) {
            const bool inBase =
                baseRowsSorted_
                    ? std::binary_search(row.begin(), row.end(),
                                         neighbor)
                    : std::find(row.begin(), row.end(), neighbor) !=
                          row.end();
            if (inBase)
                return "delta neighbor duplicates a base edge";
        }
    }
    if (total != deltaEdges_.load(std::memory_order_acquire))
        return "per-vertex delta counts disagree with the total";
    return nullptr;
}

} // namespace graphite
