// Runtime-wide counters and tuning knobs shared by every runtime
// flavour (hier today; seq/stw/localheap in later PRs). Counters are
// updated only on slow paths (promotion, GC, chunk traffic) so they
// never tax the nanosecond fast paths.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace parmem {

// How entangling pointer writes promote the source closure.
enum class PromotionMode {
  kCoarseLocking,  // lock the heap path from target down to leaf (paper Sec 3)
  kFineGrained,    // CAS-claim per object + spinlocked remote bump (Sec 5)
};

// Chunk size classes, one per power of two from 4 KiB to 256 KiB:
// class k holds chunks of 4 KiB << k bytes (core/heap.hpp ChunkPool).
inline constexpr unsigned kChunkSizeClasses = 7;

// Snapshot of runtime counters. Monotonic over the life of a runtime;
// bench_common::measure() diffs two snapshots around a run.
struct Stats {
  std::uint64_t promotions = 0;        // entangling writes that promoted
  std::uint64_t promoted_objects = 0;  // objects copied up by promotion
  std::uint64_t promoted_bytes = 0;    // bytes copied up by promotion
  std::uint64_t promo_claim_conflicts = 0;  // lost fine-grained CAS claims
  // Coarse-mode promotions whose closure reached a heap between the
  // target and the writer's leaf, so they locked that whole path
  // instead of the target heap alone (core/promote.hpp).
  std::uint64_t promo_escalations = 0;
  std::uint64_t gc_count = 0;          // collections (leaf or stop-the-world)
  std::uint64_t gc_bytes_copied = 0;   // live bytes evacuated by GC
  std::uint64_t gc_ns = 0;             // GC time; STW adds stopped workers
  std::uint64_t forks = 0;             // fork2 calls
  // Hierarchy-aware internal-heap collections (core/gc_internal.hpp).
  // These are billed to the runtime that owns the collected heap and are
  // ALSO counted in gc_count / gc_bytes_copied / gc_ns above (an internal
  // collection is a collection); the internal_* pair isolates them.
  std::uint64_t internal_gc_count = 0;
  std::uint64_t internal_gc_bytes = 0;  // live bytes evacuated internally
  // Global-heap collections (the localheap runtime's stopped-world
  // depth-0 collection). Also counted in gc_count / gc_bytes_copied /
  // gc_ns; the global_* pair isolates them.
  std::uint64_t global_gc_count = 0;
  std::uint64_t global_gc_bytes = 0;  // live bytes evacuated from global
  // Emergency collections: cascades run because an allocation hit the
  // hard heap budget (or an injected chunk_alloc fault) and the runtime
  // collected everything it could before retrying. Also counted in
  // gc_count; a nonzero value means the computation ran degraded.
  std::uint64_t emergency_gcs = 0;
  // Chunk traffic per size class, read off the runtime's ChunkPool.
  // fresh: slots whose pages come from the OS (carved from a
  // reservation, or reissued after trim returned their pages), so each
  // one page-faults as it fills. recycled: pooled slots handed out
  // again with their pages still resident.
  std::uint64_t chunks_fresh[kChunkSizeClasses] = {};
  std::uint64_t chunks_recycled[kChunkSizeClasses] = {};

  Stats& operator+=(const Stats& o) {
    promotions += o.promotions;
    promoted_objects += o.promoted_objects;
    promoted_bytes += o.promoted_bytes;
    promo_claim_conflicts += o.promo_claim_conflicts;
    promo_escalations += o.promo_escalations;
    gc_count += o.gc_count;
    gc_bytes_copied += o.gc_bytes_copied;
    gc_ns += o.gc_ns;
    forks += o.forks;
    internal_gc_count += o.internal_gc_count;
    internal_gc_bytes += o.internal_gc_bytes;
    global_gc_count += o.global_gc_count;
    global_gc_bytes += o.global_gc_bytes;
    emergency_gcs += o.emergency_gcs;
    for (unsigned k = 0; k < kChunkSizeClasses; ++k) {
      chunks_fresh[k] += o.chunks_fresh[k];
      chunks_recycled[k] += o.chunks_recycled[k];
    }
    return *this;
  }

  Stats operator-(const Stats& o) const {
    Stats d;
    d.promotions = promotions - o.promotions;
    d.promoted_objects = promoted_objects - o.promoted_objects;
    d.promoted_bytes = promoted_bytes - o.promoted_bytes;
    d.promo_claim_conflicts = promo_claim_conflicts - o.promo_claim_conflicts;
    d.promo_escalations = promo_escalations - o.promo_escalations;
    d.gc_count = gc_count - o.gc_count;
    d.gc_bytes_copied = gc_bytes_copied - o.gc_bytes_copied;
    d.gc_ns = gc_ns - o.gc_ns;
    d.forks = forks - o.forks;
    d.internal_gc_count = internal_gc_count - o.internal_gc_count;
    d.internal_gc_bytes = internal_gc_bytes - o.internal_gc_bytes;
    d.global_gc_count = global_gc_count - o.global_gc_count;
    d.global_gc_bytes = global_gc_bytes - o.global_gc_bytes;
    d.emergency_gcs = emergency_gcs - o.emergency_gcs;
    for (unsigned k = 0; k < kChunkSizeClasses; ++k) {
      d.chunks_fresh[k] = chunks_fresh[k] - o.chunks_fresh[k];
      d.chunks_recycled[k] = chunks_recycled[k] - o.chunks_recycled[k];
    }
    return d;
  }
};

// Point-in-time view of a runtime's counters plus its memory
// occupancy, cheap enough to take from a sampler thread while the
// world keeps running: every source is a relaxed atomic (sharded
// counters, the chunk pool's live/peak gauges), so no collection, no
// lock, and no safepoint is involved. Steady-state consumers (the
// serve harness's RSS/fragmentation sampling, the soak tests) diff two
// of these around an interval; live_bytes is the denominator of the
// fragmentation ratio RSS / live.
struct StatsSnapshot {
  Stats stats;                 // monotonic counters (diff two snapshots)
  std::size_t live_bytes = 0;  // chunk bytes currently checked out
  std::size_t peak_bytes = 0;  // lifetime high-water chunk footprint

  // Counter delta over [earlier, this]. Memory gauges are levels, not
  // counters, so the caller reads them off each endpoint directly.
  Stats interval_since(const StatsSnapshot& earlier) const {
    return stats - earlier.stats;
  }
};

// Shared mutable counter block; one per runtime instance.
struct StatsCell {
  std::atomic<std::uint64_t> promotions{0};
  std::atomic<std::uint64_t> promoted_objects{0};
  std::atomic<std::uint64_t> promoted_bytes{0};
  std::atomic<std::uint64_t> promo_claim_conflicts{0};
  std::atomic<std::uint64_t> promo_escalations{0};
  std::atomic<std::uint64_t> gc_count{0};
  std::atomic<std::uint64_t> gc_bytes_copied{0};
  std::atomic<std::uint64_t> gc_ns{0};
  std::atomic<std::uint64_t> forks{0};
  std::atomic<std::uint64_t> internal_gc_count{0};
  std::atomic<std::uint64_t> internal_gc_bytes{0};
  std::atomic<std::uint64_t> global_gc_count{0};
  std::atomic<std::uint64_t> global_gc_bytes{0};
  std::atomic<std::uint64_t> emergency_gcs{0};

  Stats snapshot() const {
    Stats s;
    s.promotions = promotions.load(std::memory_order_relaxed);
    s.promoted_objects = promoted_objects.load(std::memory_order_relaxed);
    s.promoted_bytes = promoted_bytes.load(std::memory_order_relaxed);
    s.promo_claim_conflicts =
        promo_claim_conflicts.load(std::memory_order_relaxed);
    s.promo_escalations = promo_escalations.load(std::memory_order_relaxed);
    s.gc_count = gc_count.load(std::memory_order_relaxed);
    s.gc_bytes_copied = gc_bytes_copied.load(std::memory_order_relaxed);
    s.gc_ns = gc_ns.load(std::memory_order_relaxed);
    s.forks = forks.load(std::memory_order_relaxed);
    s.internal_gc_count = internal_gc_count.load(std::memory_order_relaxed);
    s.internal_gc_bytes = internal_gc_bytes.load(std::memory_order_relaxed);
    s.global_gc_count = global_gc_count.load(std::memory_order_relaxed);
    s.global_gc_bytes = global_gc_bytes.load(std::memory_order_relaxed);
    s.emergency_gcs = emergency_gcs.load(std::memory_order_relaxed);
    return s;
  }
};

// Stable small integer id for the calling thread, assigned on first
// use and fixed for the thread's lifetime. Shard pickers (stats,
// chunk caches) reduce it modulo their own power-of-two shard count;
// ids are never recycled, so two live threads never share an id (they
// may share a shard, which is a contention question, not correctness).
inline unsigned thread_shard_id() {
  static std::atomic<unsigned> next{0};
  static thread_local unsigned id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Per-worker sharded counter block: each shard is a full StatsCell on
// its own cache line(s), so workers bumping counters on hot slow paths
// (forks, promotions, chunk traffic) never bounce a shared line.
// Aggregated on read -- snapshot() sums every shard, which is exact
// because each counter is monotonic and relaxed adds commute. Code
// that hands a counter block to a collector still passes a plain
// StatsCell* (`&stats.local()`), so the collector interfaces are
// unchanged.
class ShardedStats {
 public:
  // `shards` is rounded up to a power of two; pass the resolved worker
  // count (threads beyond it fold onto existing shards by modulo).
  explicit ShardedStats(unsigned shards) {
    unsigned n = 1;
    while (n < shards) {
      n <<= 1;
    }
    mask_ = n - 1;
    cells_ = std::make_unique<Cell[]>(n);
  }

  StatsCell& local() { return cells_[thread_shard_id() & mask_].c; }
  unsigned shard_count() const { return mask_ + 1; }

  Stats snapshot() const {
    Stats total;
    for (unsigned i = 0; i <= mask_; ++i) {
      total += cells_[i].c.snapshot();
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    StatsCell c;
  };

  std::unique_ptr<Cell[]> cells_;
  unsigned mask_;
};

}  // namespace parmem
