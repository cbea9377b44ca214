#include "serve/hot_vertex_cache.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "graph/csr_graph.h"
#include "graph/delta_csr.h"
#include "graph/graph_stats.h"
#include "obs/metrics.h"

namespace graphite::serve {

namespace {

/** splitmix64 finalizer: avalanche vertex ids into shard/table bits. */
std::uint64_t
mixHash(VertexId v)
{
    std::uint64_t z = static_cast<std::uint64_t>(v) +
                      0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::size_t
ceilPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

template <GraphView G>
EdgeId
churnFreeDegreeThreshold(const G &graph, std::size_t capacity)
{
    if (capacity == 0)
        return 0;
    return degreeAtRank(graph, capacity / 2);
}

template EdgeId churnFreeDegreeThreshold(const CsrGraph &, std::size_t);
template EdgeId churnFreeDegreeThreshold(const DeltaCsr &, std::size_t);

HotVertexCache::HotVertexCache(std::size_t capacity, std::size_t shards,
                               std::size_t rowWidth)
    : slotsPerShard_(0), rowWidth_(rowWidth), tableMask_(0)
{
    GRAPHITE_ASSERT(rowWidth > 0, "hot cache needs rowWidth > 0");
    if (capacity == 0)
        return; // disabled: no shards, lookup/put are no-ops
    const std::size_t numShards =
        ceilPow2(shards == 0 ? 1 : shards);
    slotsPerShard_ = (capacity + numShards - 1) / numShards;
    // Open-addressing table at <= 0.5 load plus <= 0.25 tombstones
    // always keeps empty cells, so probes terminate.
    const std::size_t tableSize = ceilPow2(slotsPerShard_ * 2);
    tableMask_ = tableSize - 1;
    shards_ = std::vector<Shard>(numShards);
    for (auto &shard : shards_) {
        MutexLock lock(shard.mutex);
        // graphite-lint: allow(alloc) cold constructor preallocation;
        // all steady-state cache operations reuse this storage.
        shard.slotVertex.resize(slotsPerShard_, 0);
        // graphite-lint: allow(alloc) cold constructor preallocation.
        shard.refBit.resize(slotsPerShard_, 0);
        // graphite-lint: allow(alloc) cold constructor preallocation.
        shard.rows.resize(slotsPerShard_ * rowWidth_, 0.0f);
        // graphite-lint: allow(alloc) cold constructor preallocation.
        shard.table.resize(tableSize, kEmpty);
    }
}

HotVertexCache::Shard &
HotVertexCache::shardOf(VertexId v)
{
    // Shard selection uses the high hash bits, the table probe the low
    // ones, so the two index spaces stay uncorrelated.
    const std::uint64_t h = mixHash(v);
    return shards_[(h >> 32) & (shards_.size() - 1)];
}

const HotVertexCache::Shard &
HotVertexCache::shardOf(VertexId v) const
{
    const std::uint64_t h = mixHash(v);
    return shards_[(h >> 32) & (shards_.size() - 1)];
}

std::int32_t
HotVertexCache::findSlot(const Shard &shard, VertexId v) const
{
    std::size_t i = mixHash(v) & tableMask_;
    for (;;) {
        const std::int32_t cell = shard.table[i];
        if (cell == kEmpty)
            return kEmpty;
        if (cell != kTombstone &&
            shard.slotVertex[static_cast<std::size_t>(cell)] == v)
            return cell;
        i = (i + 1) & tableMask_;
    }
}

void
HotVertexCache::rehashShard(Shard &shard)
{
    // In-place tombstone purge: clear the (already allocated) table
    // and reinsert every resident slot. No heap traffic.
    for (auto &cell : shard.table)
        cell = kEmpty;
    shard.tombstones = 0;
    for (std::size_t slot = 0; slot < shard.used; ++slot) {
        std::size_t i = mixHash(shard.slotVertex[slot]) & tableMask_;
        while (shard.table[i] != kEmpty)
            i = (i + 1) & tableMask_;
        shard.table[i] = static_cast<std::int32_t>(slot);
    }
}

bool
HotVertexCache::lookup(VertexId v, Feature *dst)
{
    // A disabled cache must stay invisible in the stats: counting a
    // miss here made cache-off A/B legs report a fake 0% hit rate
    // instead of "no cache".
    if (!enabled())
        return false;
    Shard &shard = shardOf(v);
    bool hit = false;
    {
        MutexLock lock(shard.mutex);
        const std::int32_t slot = findSlot(shard, v);
        if (slot != kEmpty) {
            hit = true;
            shard.refBit[static_cast<std::size_t>(slot)] = 1;
            std::memcpy(dst,
                        shard.rows.data() +
                            static_cast<std::size_t>(slot) * rowWidth_,
                        rowWidth_ * sizeof(Feature));
        }
    }
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    return hit;
}

bool
HotVertexCache::putLocked(Shard &shard, VertexId v, const Feature *row)
{
    bool evicted = false;
    std::int32_t slot = findSlot(shard, v);
    if (slot == kEmpty) {
        if (shard.used < slotsPerShard_) {
            slot = static_cast<std::int32_t>(shard.used++);
        } else {
            // CLOCK second chance: spend ref bits until a cold
            // slot comes under the hand (terminates within two
            // sweeps — each pass clears a bit).
            while (shard.refBit[shard.clockHand] != 0) {
                shard.refBit[shard.clockHand] = 0;
                shard.clockHand =
                    (shard.clockHand + 1) % slotsPerShard_;
            }
            slot = static_cast<std::int32_t>(shard.clockHand);
            shard.clockHand = (shard.clockHand + 1) % slotsPerShard_;
            // Unlink the victim from the index.
            const VertexId victim =
                shard.slotVertex[static_cast<std::size_t>(slot)];
            std::size_t i = mixHash(victim) & tableMask_;
            while (shard.table[i] != slot) {
                GRAPHITE_DCHECK(shard.table[i] != kEmpty,
                                "evicted vertex missing from table");
                i = (i + 1) & tableMask_;
            }
            shard.table[i] = kTombstone;
            ++shard.tombstones;
            evicted = true;
        }
        shard.slotVertex[static_cast<std::size_t>(slot)] = v;
        // Link the new resident: first empty or tombstone cell on
        // v's probe chain.
        std::size_t i = mixHash(v) & tableMask_;
        while (shard.table[i] != kEmpty &&
               shard.table[i] != kTombstone)
            i = (i + 1) & tableMask_;
        if (shard.table[i] == kTombstone)
            --shard.tombstones;
        shard.table[i] = slot;
        if (shard.tombstones * 4 > shard.table.size())
            rehashShard(shard);
    }
    shard.refBit[static_cast<std::size_t>(slot)] = 1;
    std::memcpy(shard.rows.data() +
                    static_cast<std::size_t>(slot) * rowWidth_,
                row, rowWidth_ * sizeof(Feature));
    return evicted;
}

void
HotVertexCache::put(VertexId v, const Feature *row)
{
    if (!enabled())
        return;
    Shard &shard = shardOf(v);
    bool evicted = false;
    {
        MutexLock lock(shard.mutex);
        evicted = putLocked(shard, v, row);
    }
    puts_.fetch_add(1, std::memory_order_relaxed);
    if (evicted)
        evictions_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
HotVertexCache::fillEpoch(VertexId v) const
{
    if (!enabled())
        return 0;
    // Acquire pairs with invalidate()'s release bump: a filler that
    // reads epoch E is guaranteed that if an invalidation happened
    // before this load, it sees the bumped value and putIfFresh will
    // reject the (possibly stale) row.
    return shardOf(v).epoch.load(std::memory_order_acquire);
}

bool
HotVertexCache::putIfFresh(VertexId v, const Feature *row,
                           std::uint64_t epoch)
{
    if (!enabled())
        return false;
    Shard &shard = shardOf(v);
    bool evicted = false;
    {
        MutexLock lock(shard.mutex);
        // The epoch can only advance under the shard mutex, so a
        // relaxed load here is race-free; a mismatch means an edge
        // update landed between the caller's gather and now — the row
        // may encode pre-update adjacency and must not be installed.
        if (shard.epoch.load(std::memory_order_relaxed) != epoch)
            return false;
        evicted = putLocked(shard, v, row);
    }
    puts_.fetch_add(1, std::memory_order_relaxed);
    if (evicted)
        evictions_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
HotVertexCache::invalidate(VertexId v)
{
    if (!enabled())
        return false;
    Shard &shard = shardOf(v);
    bool dropped = false;
    {
        MutexLock lock(shard.mutex);
        // Bump first (release): any fill that sampled the old epoch
        // before this point is now rejected by putIfFresh, resident or
        // not — the in-flight row may predate the edge update.
        shard.epoch.fetch_add(1, std::memory_order_release);
        const std::int32_t slot = findSlot(shard, v);
        if (slot != kEmpty) {
            dropped = true;
            const auto s = static_cast<std::size_t>(slot);
            // Tombstone v's table cell.
            std::size_t i = mixHash(v) & tableMask_;
            while (shard.table[i] != slot) {
                GRAPHITE_DCHECK(shard.table[i] != kEmpty,
                                "resident vertex missing from table");
                i = (i + 1) & tableMask_;
            }
            shard.table[i] = kTombstone;
            ++shard.tombstones;
            // Swap-with-last keeps slots [0, used) densely resident —
            // the invariant the CLOCK sweep and rehash depend on.
            const std::size_t last = shard.used - 1;
            if (s != last) {
                const VertexId moved = shard.slotVertex[last];
                shard.slotVertex[s] = moved;
                shard.refBit[s] = shard.refBit[last];
                std::memcpy(shard.rows.data() + s * rowWidth_,
                            shard.rows.data() + last * rowWidth_,
                            rowWidth_ * sizeof(Feature));
                std::size_t j = mixHash(moved) & tableMask_;
                while (shard.table[j] !=
                       static_cast<std::int32_t>(last)) {
                    GRAPHITE_DCHECK(shard.table[j] != kEmpty,
                                    "moved vertex missing from table");
                    j = (j + 1) & tableMask_;
                }
                shard.table[j] = static_cast<std::int32_t>(s);
            }
            --shard.used;
            // The CLOCK hand only sweeps when the shard is full, but
            // keep it inside the resident prefix so the next sweep
            // starts on a live slot.
            if (shard.used > 0 && shard.clockHand >= shard.used)
                shard.clockHand = 0;
            if (shard.tombstones * 4 > shard.table.size())
                rehashShard(shard);
        }
    }
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter &invalidationCounter =
        obs::MetricsRegistry::global().counter("serve.invalidations");
    invalidationCounter.increment();
    return dropped;
}

void
HotVertexCache::clear()
{
    if (!enabled())
        return;
    for (auto &shard : shards_) {
        MutexLock lock(shard.mutex);
        shard.epoch.fetch_add(1, std::memory_order_release);
        for (auto &cell : shard.table)
            cell = kEmpty;
        std::fill(shard.refBit.begin(), shard.refBit.end(),
                  std::uint8_t{0});
        shard.used = 0;
        shard.clockHand = 0;
        shard.tombstones = 0;
    }
}

HotVertexCache::Stats
HotVertexCache::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.puts = puts_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.invalidations = invalidations_.load(std::memory_order_relaxed);
    return s;
}

} // namespace graphite::serve
