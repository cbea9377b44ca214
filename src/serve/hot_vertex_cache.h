/**
 * @file
 * Degree-prioritized cache of finished layer-0 rows for hub vertices —
 * the serving-side use of the paper's locality insight (Section 4.2):
 * in power-law graphs a small set of high-degree hubs dominates fan-in,
 * so their rows are recomputed constantly. Caching one row per hot hub
 * turns a full fan-in gather (degree+1 feature-row reads) plus one
 * layer-0 GEMM row into a single row copy.
 *
 * The cached value is the hub's layer-0 output over its *full*
 * neighborhood, h1 = act(W0 * mean(self, neighbors) + b0) —
 * deterministic per vertex, independent of which request reached it —
 * so a cached row is reusable by every request that touches the hub,
 * at a bounded deviation from any per-request sampled estimate. The
 * server does not sample below an admitted hub at all.
 *
 * Structure: fixed capacity split over power-of-two shards; each shard
 * owns its rows, an open-addressing vertex index, and a CLOCK
 * (second-chance) hand, all under one graphite::Mutex with GUARDED_BY
 * annotations. The server admits by degree threshold (fixed when it is
 * constructed); the cache evicts by CLOCK. All storage is allocated in
 * the constructor: steady-state lookup/put never touches the heap.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "graph/graph_view.h"

namespace graphite::serve {

/**
 * Churn-free admission threshold for a cache of @p capacity rows: the
 * degree of the (capacity/2)-th highest-degree vertex, so the
 * admissible set fits the cache with headroom. Thresholding at the
 * capacity-th degree instead makes the admissible set ≈ capacity and
 * the cache churns — measured-phase evictions put mega-hub
 * full-neighborhood re-gathers on the latency tail (DESIGN.md §13).
 */
template <GraphView G>
EdgeId churnFreeDegreeThreshold(const G &graph, std::size_t capacity);

/** Sharded CLOCK cache of per-hub layer-0 rows. */
class HotVertexCache
{
  public:
    /**
     * @param capacity  total row slots (0 disables the cache).
     * @param shards    shard count, rounded up to a power of two.
     * @param rowWidth  floats per cached row (layer 0's output
     *                  width).
     */
    HotVertexCache(std::size_t capacity, std::size_t shards,
                   std::size_t rowWidth);

    HotVertexCache(const HotVertexCache &) = delete;
    HotVertexCache &operator=(const HotVertexCache &) = delete;

    /** False when constructed with zero capacity. */
    bool enabled() const { return slotsPerShard_ > 0; }

    /** Total row slots across shards (>= requested capacity). */
    std::size_t capacity() const
    {
        return slotsPerShard_ * shards_.size();
    }

    std::size_t rowWidth() const { return rowWidth_; }

    /**
     * Copy @p v's cached row into @p dst (rowWidth floats) and mark it
     * recently used. Returns false (counting a miss) when absent. A
     * disabled cache returns false without touching the hit/miss stats
     * — cache-off A/B legs report "no cache", not a 0% hit rate.
     */
    bool lookup(VertexId v, Feature *dst);

    /**
     * Install @p row (rowWidth floats) for @p v, CLOCK-evicting a
     * not-recently-used resident when the shard is full. Overwrites in
     * place if @p v is already resident.
     */
    void put(VertexId v, const Feature *row);

    /**
     * Shard fill epoch of @p v, for the stale-fill protocol (DESIGN.md
     * §14): read the epoch *before* gathering v's neighborhood, then
     * install with putIfFresh(). invalidate() and clear() bump the
     * epoch, so a fill computed from pre-update adjacency can never be
     * installed after the update invalidated it.
     */
    std::uint64_t fillEpoch(VertexId v) const;

    /**
     * put(), unless @p v's shard fill epoch has advanced past
     * @p epoch (an edge update touched the shard since the caller
     * gathered the row). Returns true when the row was installed.
     */
    bool putIfFresh(VertexId v, const Feature *row, std::uint64_t epoch);

    /**
     * Drop @p v's cached row (edge-update path) and bump the shard
     * fill epoch so concurrent in-flight fills of the pre-update row
     * are rejected by putIfFresh(). Returns true when @p v was
     * resident.
     */
    bool invalidate(VertexId v);

    /**
     * Drop every resident row and bump all shard fill epochs. Called
     * around overlay compaction: a compacted row gathers in sorted
     * merged order, not base-then-delta-chain order, so rows cached
     * before the compaction are mathematically equal but bitwise
     * different from post-compaction gathers — flushing keeps the
     * cache-on == hub-exact-oracle serving contract bitwise across
     * compactions. Allocation-free (the table is reset in place).
     */
    void clear();

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t puts = 0;
        std::uint64_t evictions = 0;
        /** invalidate() calls (edge-update traffic). */
        std::uint64_t invalidations = 0;
    };

    Stats stats() const;

  private:
    /** Index sentinel: empty table cell. */
    static constexpr std::int32_t kEmpty = -1;
    /** Index sentinel: deleted table cell (probe chains continue). */
    static constexpr std::int32_t kTombstone = -2;

    struct Shard
    {
        mutable Mutex mutex;
        /** Resident vertex per slot (valid for slots < used). */
        std::vector<VertexId> slotVertex GRAPHITE_GUARDED_BY(mutex);
        /** CLOCK reference bit per slot. */
        std::vector<std::uint8_t> refBit GRAPHITE_GUARDED_BY(mutex);
        /** Row storage, slot-major: slots * rowWidth floats. */
        std::vector<Feature> rows GRAPHITE_GUARDED_BY(mutex);
        /** Open-addressing vertex->slot index (kEmpty/kTombstone). */
        std::vector<std::int32_t> table GRAPHITE_GUARDED_BY(mutex);
        std::size_t used GRAPHITE_GUARDED_BY(mutex) = 0;
        std::size_t clockHand GRAPHITE_GUARDED_BY(mutex) = 0;
        std::size_t tombstones GRAPHITE_GUARDED_BY(mutex) = 0;
        /**
         * Fill epoch: bumped by invalidate() and clear(), read
         * lock-free by fillEpoch(). Atomic (not merely guarded) so
         * the pre-gather read takes no lock; mutations happen under
         * the shard mutex.
         */
        std::atomic<std::uint64_t> epoch{0};
    };

    /** Slot of @p v in @p shard's table, or kEmpty. */
    std::int32_t findSlot(const Shard &shard, VertexId v) const
        GRAPHITE_REQUIRES(shard.mutex);
    /** Rebuild @p shard's table in place (tombstone purge). */
    void rehashShard(Shard &shard) GRAPHITE_REQUIRES(shard.mutex);
    /** put() body under @p shard's lock; returns whether it evicted. */
    bool putLocked(Shard &shard, VertexId v, const Feature *row)
        GRAPHITE_REQUIRES(shard.mutex);

    Shard &shardOf(VertexId v);
    const Shard &shardOf(VertexId v) const;

    std::size_t slotsPerShard_;
    std::size_t rowWidth_;
    std::size_t tableMask_;
    std::vector<Shard> shards_;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> puts_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> invalidations_{0};
};

} // namespace graphite::serve
