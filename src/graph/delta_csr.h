/**
 * @file
 * Delta-CSR overlay: dynamic-graph support over the immutable CsrGraph.
 *
 * Production graphs mutate under load (new users, new edges) while
 * every Graphite software technique — locality ordering, compression,
 * DMA planning — and the whole serving stack assume a frozen CSR. The
 * overlay reconciles the two: the base stays an immutable, validated
 * CsrGraph that every existing kernel can keep consuming, and inserted
 * edges accumulate in append-only per-vertex adjacency segments carved
 * from a preallocated pool. Readers see the union (base row followed by
 * the vertex's delta chain) through a lock-free protocol. Compaction
 * merges the deltas into a fresh validated CSR identical to a
 * from-scratch build of the same edge set (DESIGN.md §14) in two
 * phases: compacted() builds the merged snapshot while writers keep
 * inserting, and installCompacted() swaps it in, carrying over the
 * edges inserted during the build.
 *
 * Concurrency contract:
 *  - addEdge() is internally serialized (writer mutex) and safe against
 *    any number of concurrent readers: an edge is published by a
 *    release-store of the per-vertex delta count after its value and
 *    segment links are in place, and readers acquire-load the count
 *    before walking the chain. Segments never move or shrink.
 *  - degree()/neighbors()/forEachDeltaNeighbor() are wait-free and
 *    take no locks.
 *  - compacted() is a reader: safe against a concurrent addEdge() and
 *    other readers. It reads each vertex's published count once, so
 *    the snapshot holds a published prefix of every chain.
 *  - installCompacted() and compact() swap the base: they take the
 *    writer mutex themselves and require no concurrent readers.
 *  - validate() requires that no concurrent writer is active.
 *  The serving layer builds the snapshot on its consumer thread with no
 *  lock held and installs it with updates and oracle reads excluded.
 *
 * Steady-state inserts are allocation-free: the segment pool, chain
 * heads and per-vertex counters are all sized in the constructor, and
 * addEdge() reports PoolFull when the delta budget is exhausted — the
 * caller's cue to compact.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "common/assert.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "graph/csr_graph.h"
#include "graph/graph_view.h"

namespace graphite {

namespace obs {
class Counter;
} // namespace obs

/** Append-only per-vertex adjacency overlay over an immutable CSR. */
class DeltaCsr
{
  public:
    /** Edges per delta segment (chain granule). */
    static constexpr std::size_t kSegmentEdges = 8;

    /** Outcome of one addEdge() call. */
    enum class AddEdge
    {
        Added,     ///< edge inserted and published
        Duplicate, ///< already present in base or delta; graph unchanged
        SelfLoop,  ///< src == dst; rejected (GNN self term is implicit)
        PoolFull,  ///< delta budget exhausted; compact() to make room
    };

    /**
     * @param base          immutable starting graph (moved in).
     * @param maxDeltaEdges delta-pool budget: inserts past this return
     *                      PoolFull until compact() drains the overlay.
     */
    DeltaCsr(CsrGraph base, EdgeId maxDeltaEdges);

    DeltaCsr(const DeltaCsr &) = delete;
    DeltaCsr &operator=(const DeltaCsr &) = delete;

    /** The immutable base CSR (valid until the next install). */
    const CsrGraph &base() const { return base_; }

    VertexId numVertices() const { return base_.numVertices(); }

    /** Base edges + published delta edges. */
    EdgeId
    numEdges() const
    {
        return base_.numEdges() +
               deltaEdges_.load(std::memory_order_acquire);
    }

    /** Published delta edges since the last compact(). */
    EdgeId
    deltaEdges() const
    {
        return deltaEdges_.load(std::memory_order_acquire);
    }

    /** Delta-pool budget (constructor argument). */
    EdgeId maxDeltaEdges() const { return maxDeltaEdges_; }

    /** Out-degree of @p v over base + delta. */
    EdgeId
    degree(VertexId v) const
    {
        GRAPHITE_DCHECK(v < numVertices(), "degree: vertex out of range");
        return base_.degree(v) +
               vertices_[v].count.load(std::memory_order_acquire);
    }

    /** Base-only out-degree of @p v. */
    EdgeId baseDegree(VertexId v) const { return base_.degree(v); }

    /** Published delta-edge count of @p v. */
    EdgeId
    deltaDegree(VertexId v) const
    {
        GRAPHITE_DCHECK(v < numVertices(),
                        "deltaDegree: vertex out of range");
        return vertices_[v].count.load(std::memory_order_acquire);
    }

    /** Base neighbor list of @p v (a span into the base CSR). */
    std::span<const VertexId>
    baseNeighbors(VertexId v) const
    {
        return base_.neighbors(v);
    }

    /**
     * Indexable view of @p v's full neighbor list: indices
     * [0, baseDegree) map to the base row, the rest to the delta chain
     * in insertion order. The view snapshots the published delta count
     * at construction; edges inserted afterwards are not visible
     * through it (a stable read for samplers). Sequential access is
     * O(1) amortized via an internal chain cursor.
     */
    class RowView
    {
      public:
        std::size_t size() const { return baseSize_ + deltaCount_; }

        VertexId
        operator[](std::size_t i) const
        {
            GRAPHITE_DCHECK(i < size(), "RowView: index out of range");
            if (i < baseSize_)
                return base_[i];
            return graph_->deltaNeighborAt(*this, i - baseSize_);
        }

      private:
        friend class DeltaCsr;

        const DeltaCsr *graph_ = nullptr;
        const VertexId *base_ = nullptr;
        std::size_t baseSize_ = 0;
        std::size_t deltaCount_ = 0; ///< published count at snapshot
        std::uint32_t head_ = 0;     ///< first segment of the chain
        /** Sequential-access cursor: segment holding segBase_. @{ */
        mutable std::uint32_t cursorSeg_ = 0;
        mutable std::size_t cursorBase_ = 0;
        /** @} */
    };

    RowView neighbors(VertexId v) const;

    /**
     * Visit @p v's published delta neighbors in insertion order.
     * @p fn is called with each neighbor VertexId.
     */
    template <typename Fn>
    void
    forEachDeltaNeighbor(VertexId v, Fn &&fn) const
    {
        GRAPHITE_DCHECK(v < numVertices(),
                        "forEachDeltaNeighbor: vertex out of range");
        forEachDeltaRun(v, deltaDegree(v),
                        [&](const VertexId *edges, EdgeId n) {
                            for (EdgeId i = 0; i < n; ++i)
                                fn(edges[i]);
                        });
    }

    /**
     * Insert directed edge src → dst. Serialized internally; safe
     * against concurrent readers. Self-loops and duplicates (in base or
     * delta) are rejected so the overlay stays a simple graph and
     * compact() matches a from-scratch GraphBuilder build.
     */
    AddEdge addEdge(VertexId src, VertexId dst);

    /**
     * Merge base + deltas into a fresh validated CSR with sorted rows —
     * bitwise the graph a from-scratch GraphBuilder build of the same
     * edge set produces. Pure: the overlay is not modified. Safe
     * against a concurrent writer: each vertex's published count is
     * read once, so the result merges exactly the edges published when
     * its row was sized (a prefix of every chain).
     */
    CsrGraph compacted() const;

    /**
     * Install @p snapshot, a compacted() result taken since the last
     * install, as the new base. Edges inserted after the snapshot read
     * their vertex's count are carried over: the overlay is reset
     * (chains unlinked, pool cursor rewound, storage retained) and the
     * carried edges re-appended in insertion order, so each row reads
     * as the sorted snapshot row followed by its carried edges. Takes
     * the writer mutex; requires no concurrent readers (it swaps the
     * base).
     */
    void installCompacted(CsrGraph snapshot);

    /**
     * installCompacted(compacted()): merge every delta into the base.
     * Requires exclusive access: no concurrent readers or writers, so
     * nothing is carried and deltaEdges() is 0 afterwards.
     */
    void compact();

    /**
     * Re-check overlay invariants: published counts consistent with
     * chain lengths, neighbor ids in range, no self-loops, no
     * duplicates within a delta chain or against the base row.
     *
     * @return nullptr when valid, else a static message naming the
     * violated invariant (the CsrGraph::validate convention). Requires
     * no concurrent writer.
     */
    const char *validate() const;

  private:
    static constexpr std::uint32_t kNullSegment = 0xffffffffU;

    struct Segment
    {
        VertexId edges[kSegmentEdges];
        /** Next segment in the chain, kNullSegment at the tail. */
        std::atomic<std::uint32_t> next{kNullSegment};
    };

    struct VertexDelta
    {
        /** Published delta-edge count (the reader-visible frontier). */
        std::atomic<EdgeId> count{0};
        /** First segment of the chain (set before count's 0→1 bump). */
        std::atomic<std::uint32_t> head{kNullSegment};
        /** Chain tail; writer-only state. */
        std::uint32_t tail = kNullSegment;
    };

    /**
     * Walk the first @p count entries of @p v's delta chain (at most
     * its published count) as contiguous runs: @p fn(edges, n) once per
     * segment touched, in insertion order.
     */
    template <typename Fn>
    void
    forEachDeltaRun(VertexId v, EdgeId count, Fn &&fn) const
    {
        std::uint32_t seg =
            vertices_[v].head.load(std::memory_order_relaxed);
        while (count > 0) {
            GRAPHITE_DCHECK(seg != kNullSegment,
                            "delta chain shorter than count");
            const Segment &segment = pool_[seg];
            const EdgeId take =
                count < kSegmentEdges ? count
                                      : static_cast<EdgeId>(kSegmentEdges);
            fn(segment.edges, take);
            count -= take;
            seg = segment.next.load(std::memory_order_relaxed);
        }
    }

    /** Append src → dst to src's chain and publish it (no checks). */
    void appendEdge(VertexId src, VertexId dst)
        GRAPHITE_REQUIRES(writerMutex_);

    /** @p i-th delta neighbor through @p view's sequential cursor. */
    VertexId deltaNeighborAt(const RowView &view, std::size_t i) const;

    /** True when dst is already in src's base row or delta chain. */
    bool edgeExists(VertexId src, VertexId dst) const;

    CsrGraph base_;
    EdgeId maxDeltaEdges_;
    bool baseRowsSorted_;
    std::unique_ptr<VertexDelta[]> vertices_;
    std::unique_ptr<Segment[]> pool_;
    std::size_t poolSize_;
    /** Next unallocated pool segment. */
    std::size_t poolCursor_ GRAPHITE_GUARDED_BY(writerMutex_) = 0;
    std::atomic<EdgeId> deltaEdges_{0};
    /** Serializes writers (addEdge). */
    Mutex writerMutex_;
    /**
     * graph.delta_edges, registered in the constructor: registration
     * allocates, and addEdge must not.
     */
    obs::Counter &deltaEdgeCounter_;
};

static_assert(GraphView<CsrGraph> && GraphView<DeltaCsr>);

} // namespace graphite
