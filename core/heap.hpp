// Chunked heaps arranged in a tree that mirrors the fork-join task
// tree. A heap is a singly linked list of chunks, each starting on a
// 256 KiB boundary so `object -> owning heap` is one mask plus one load
// (no per-object heap word, which keeps allocation at a pointer bump).
//
// Every chunk comes from a per-runtime ChunkPool. Chunks of 4 KiB to
// 256 KiB are 256 KiB-aligned slots carved from large MAP_NORESERVE
// reservations and recycled by size class, so steady-state allocation,
// leaf GC and per-fork heap turnover never reach the OS (a fork's
// starter chunk is a pointer pop, not a page-faulting allocation), and
// ChunkPool::trim hands pooled pages back with MADV_DONTNEED. Oversized
// objects get a dedicated, individually mapped multiple-of-256KiB
// chunk; their start address still lies inside the first aligned
// block, so the mask trick holds, and the leaf collector keeps a live
// one in place instead of copying it (core/gc_leaf.hpp).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#include <sys/mman.h>

#include "core/failpoint.hpp"
#include "core/object.hpp"
#include "core/stats.hpp"

#if defined(__SANITIZE_THREAD__)
#define PARMEM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PARMEM_TSAN 1
#endif
#endif
#if defined(PARMEM_TSAN)
#include <sanitizer/tsan_interface.h>
#endif
#if defined(__SANITIZE_ADDRESS__)
#define PARMEM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARMEM_ASAN 1
#endif
#endif
#if defined(PARMEM_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace parmem {

class Heap;

inline constexpr std::size_t kChunkBytesLog2 = 18;
inline constexpr std::size_t kChunkBytes = std::size_t{1} << kChunkBytesLog2;
inline constexpr std::size_t kChunkHeaderBytes = 64;
inline constexpr std::size_t kChunkPayload = kChunkBytes - kChunkHeaderBytes;

// Leaf heaps start on a small chunk that doubles up to kChunkBytes, so
// a fine-grained fork tree of thousands of tiny leaves doesn't pin a
// full 256 KiB per leaf. Small chunks are still kChunkBytes-ALIGNED
// (so chunk_of()'s mask finds the header) but only kMinChunkBytes big.
inline constexpr std::size_t kMinChunkBytesLog2 = 12;
inline constexpr std::size_t kMinChunkBytes = std::size_t{1}
                                              << kMinChunkBytesLog2;
static_assert(kChunkSizeClasses == kChunkBytesLog2 - kMinChunkBytesLog2 + 1,
              "one chunk size class per power of two");

struct alignas(kChunkHeaderBytes) Chunk {
  std::atomic<Heap*> heap{nullptr};  // owning heap; retargeted at join-merge
  Chunk* next = nullptr;
  char* obj_end = nullptr;  // end of allocated objects; valid when retired
  std::size_t bytes = 0;    // total footprint including header
  bool oversized = false;
  // Transient mark of a chunk being collected. Atomic: another task's
  // collector may test it on a chunk of a heap it does not own.
  std::atomic<bool> from_space{false};

  char* data() { return reinterpret_cast<char*>(this) + kChunkHeaderBytes; }
  char* data_limit() { return reinterpret_cast<char*>(this) + bytes; }
};

static_assert(sizeof(Chunk) <= kChunkHeaderBytes,
              "chunk header must fit its reserved prefix");

inline Chunk* chunk_of(const Object* o) {
  return reinterpret_cast<Chunk*>(reinterpret_cast<std::uintptr_t>(o) &
                                  ~(kChunkBytes - 1));
}

inline Heap* heap_of(const Object* o) {
  return chunk_of(o)->heap.load(std::memory_order_relaxed);
}

// Polite spin: tells the core we are in a busy-wait so the sibling
// hyperthread gets the pipeline. Shared by every spin site (SpinLock,
// the scheduler's steal loop, GC-team termination detection).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Tiny spinlock guarding fine-grained remote bumps into an internal
// heap; promotion critical sections are a handful of instructions.
class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      cpu_relax();
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

// Per-runtime chunk recycler and the one source of every chunk a heap
// owns. A chunk of 4 KiB to 256 KiB is a slot: one kChunkBytes-aligned,
// kChunkBytes-long stretch of a large MAP_NORESERVE reservation, of
// which the chunk uses only its first `bytes`, so only the pages it
// touches count toward RSS. A released chunk is pooled by size class
// and handed out again for the same size: first through the caller's
// CacheShard (kCacheShards of them, each cache-line aligned behind its
// own spinlock, holding up to kCacheBytes per class), then through the
// class's shared list behind a mutex. Steady-state allocation, leaf GC
// and fork-tree turnover therefore never reach the OS; only a class
// whose lists are empty takes a blank slot. Oversized chunks are
// mapped one by one and unmapped on release.
class ChunkPool {
 public:
  ChunkPool() = default;
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  // Heaps die before their pool, so every slot is pooled or blank by
  // now and unmapping the reservations frees them all.
  ~ChunkPool() {
    for (const Reservation& r : reservations_) {
      asan_unpoison(r.base, kReservationBytes);
      ::munmap(r.base, kReservationBytes);
    }
  }

  // payload_bytes: object bytes the caller needs to fit in one chunk.
  // size_hint: the heap's current chunk-growth step; grown as needed to
  // fit the payload and clamped to [kMinChunkBytes, kChunkBytes].
  //
  // Throws parmem::OutOfMemory when handing out the chunk would push
  // live_bytes past the budget (or, when the chunk needs memory from
  // the OS, the chunk_alloc failpoint fires or the OS refuses it; a
  // pooled chunk never faults). Collector-context allocations
  // (failpoint::gc_exempt) bypass budget and faults: a mid-evacuation
  // failure is not unwindable, and to-space is bounded by live data.
  Chunk* acquire(std::size_t payload_bytes,
                 std::size_t size_hint = kChunkBytes) {
    if (payload_bytes > kChunkPayload) {
      return map_oversized(payload_bytes);
    }
    std::size_t want = size_hint < kMinChunkBytes ? kMinChunkBytes
                       : size_hint > kChunkBytes  ? kChunkBytes
                                                  : size_hint;
    while (want - kChunkHeaderBytes < payload_bytes) {
      want <<= 1;  // terminates: payload fits a kChunkBytes chunk
    }
    const unsigned k = size_class(want);
    // Caller's shard first: an uncontended spinlock on its own line.
    // check_budget runs BEFORE the pop on both paths, so a budget throw
    // leaves the chunk where it was.
    CacheShard& s = shard();
    Chunk* c = nullptr;
    {
      std::lock_guard<SpinLock> g(s.lock);
      if (s.head[k] != nullptr) {
        check_budget(want);  // pooled reuse still counts as live
        c = s.head[k];
        s.head[k] = c->next;
        --s.count[k];
      }
    }
    if (c == nullptr) {
      std::lock_guard<std::mutex> g(mu_);
      if (free_[k] != nullptr) {
        check_budget(want);
        c = free_[k];
        free_[k] = c->next;
      }
    }
    if (c == nullptr) {
      return fresh(k);
    }
    s.recycled[k].fetch_add(1, std::memory_order_relaxed);
    return hand_out(c, want);
  }

  void release(Chunk* c) {
    const std::size_t bytes = c->bytes;
    if (c->oversized) {
      ::munmap(c, bytes);
    } else {
      // Poisoned before it is published: once pooled, another thread
      // may pop and unpoison it.
      asan_poison(c->data(), bytes - kChunkHeaderBytes);
      const unsigned k = size_class(bytes);
      // Capped per-thread cache first; overflow spills to the shared
      // list so one thread's GC churn stays reusable by everyone.
      CacheShard& s = shard();
      bool cached = false;
      {
        std::lock_guard<SpinLock> g(s.lock);
        if ((s.count[k] + 1) * bytes <= kCacheBytes) {
          c->next = s.head[k];
          s.head[k] = c;
          ++s.count[k];
          cached = true;
        }
      }
      if (!cached) {
        std::lock_guard<std::mutex> g(mu_);
        c->next = free_[k];
        free_[k] = c;
      }
    }
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  // Release a whole chunk list (linked through `next`) at once, as a
  // collector does with its from-space. Pooled chunks go straight to
  // the shared lists, under one lock: a collection frees many chunks at
  // once on one thread, and parked in that thread's cache they would be
  // out of every other thread's reach, which would then carve fresh
  // slots while they sit idle.
  void release_list(Chunk* c) {
    std::size_t bytes = 0;
    std::lock_guard<std::mutex> g(mu_);
    while (c != nullptr) {
      Chunk* n = c->next;
      bytes += c->bytes;
      if (c->oversized) {
        ::munmap(c, c->bytes);
      } else {
        asan_poison(c->data(), c->bytes - kChunkHeaderBytes);
        const unsigned k = size_class(c->bytes);
        c->next = free_[k];
        free_[k] = c;
      }
      c = n;
    }
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  // Returns the pages of pooled chunks to the OS until at most
  // keep_bytes of them stay resident, across every size class and the
  // per-thread caches alike. A trimmed slot is MADV_DONTNEED'd and goes
  // back to its reservation as a blank slot, which any class can take
  // next; unmapping it instead would split the reservation's mapping,
  // and a mapping per slot runs into vm.max_map_count. Collectors that
  // just emptied a large from-space call this; without it the pool pins
  // the process at its all-time chunk high-water forever.
  void trim(std::size_t keep_bytes) {
    Chunk* excess = nullptr;
    std::size_t kept = 0;
    auto sift = [&](Chunk*& head) {
      unsigned moved = 0;
      for (Chunk** p = &head; *p != nullptr;) {
        Chunk* c = *p;
        if (kept + c->bytes <= keep_bytes) {
          kept += c->bytes;
          p = &c->next;
        } else {
          *p = c->next;
          c->next = excess;
          excess = c;
          ++moved;
        }
      }
      return moved;
    };
    for (CacheShard& s : cache_) {
      std::lock_guard<SpinLock> g(s.lock);
      for (unsigned k = 0; k < kChunkSizeClasses; ++k) {
        s.count[k] -= sift(s.head[k]);
      }
    }
    std::lock_guard<std::mutex> g(mu_);
    for (Chunk*& head : free_) {
      sift(head);
    }
    while (excess != nullptr) {
      Chunk* c = excess;
      const std::size_t bytes = c->bytes;
      excess = c->next;  // read before the header's page is dropped
      ::madvise(c, bytes, MADV_DONTNEED);
      mark_blank(reinterpret_cast<char*>(c));
    }
  }

  // Bytes currently handed out to heaps (excludes pooled free chunks).
  std::size_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }

  // `s` with this pool's per-class fresh/recycled chunk counters added.
  Stats with_chunk_counts(Stats s) const {
    for (unsigned k = 0; k < kChunkSizeClasses; ++k) {
      s.chunks_fresh[k] += fresh_[k].load(std::memory_order_relaxed);
      for (const CacheShard& sh : cache_) {
        s.chunks_recycled[k] += sh.recycled[k].load(std::memory_order_relaxed);
      }
    }
    return s;
  }

  // Hard byte budget on handed-out chunks (0 = unlimited). Enforced in
  // acquire(); the owning runtime catches the resulting OutOfMemory on
  // its allocation slow path, runs its emergency-collection cascade,
  // and retries once before letting the exception escape.
  void set_budget(std::size_t bytes) {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  std::size_t budget() const {
    return budget_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kReservationSlots = 256;  // 64 MiB each
  static constexpr std::size_t kReservationBytes =
      kReservationSlots * kChunkBytes;
  static constexpr unsigned kCacheShards = 8;  // power of two
  // Per shard and class: 4 full-size chunks, or 256 4 KiB starters.
  static constexpr std::size_t kCacheBytes = 4 * kChunkBytes;

  static unsigned size_class(std::size_t bytes) {
    return static_cast<unsigned>(std::countr_zero(bytes)) -
           static_cast<unsigned>(kMinChunkBytesLog2);
  }

  // Under ASan a pooled chunk's payload is poisoned, so a stale pointer
  // into a released chunk faults at the access, as it would on freed
  // memory. The header stays addressable: the free lists live there.
  static void asan_poison([[maybe_unused]] void* p,
                          [[maybe_unused]] std::size_t n) {
#if defined(PARMEM_ASAN)
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
  }
  static void asan_unpoison([[maybe_unused]] void* p,
                            [[maybe_unused]] std::size_t n) {
#if defined(PARMEM_ASAN)
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
  }

  void check_budget(std::size_t incoming) {
    std::size_t b = budget_.load(std::memory_order_relaxed);
    if (__builtin_expect(b != 0, 0) && !failpoint::gc_exempt() &&
        live_bytes_.load(std::memory_order_relaxed) + incoming > b) {
      throw oom(incoming);
    }
  }

  // Budget and fault gate for memory that comes from the OS (a fresh
  // slot or an oversized mapping).
  void admit(std::size_t total) {
    check_budget(total);
    // gc_exempt checked FIRST: triggered() consumes a hit from the
    // schedule, and collector-context allocations must not eat the
    // one-shot a fail@N spec aimed at the mutator.
    if (__builtin_expect(!failpoint::gc_exempt() &&
                             failpoint::triggered(failpoint::Site::kChunkAlloc),
                         0)) {
      throw oom(total);
    }
  }

  OutOfMemory oom(std::size_t total) const {
    return OutOfMemory("chunk_alloc", total, live_bytes(), budget(),
                       peak_bytes());
  }

  // (Re)initialise the header at `mem` and count it live.
  Chunk* hand_out(void* mem, std::size_t bytes) {
    asan_unpoison(static_cast<char*>(mem) + kChunkHeaderBytes,
                  bytes - kChunkHeaderBytes);
    Chunk* c = new (mem) Chunk();
    c->bytes = bytes;
    account_live(bytes);
    return c;
  }

  Chunk* fresh(unsigned k) {
    const std::size_t bytes = kMinChunkBytes << k;
    admit(bytes);
    char* slot = nullptr;
    {
      std::lock_guard<std::mutex> g(mu_);
      slot = take_blank_slot(bytes);
    }
    fresh_[k].fetch_add(1, std::memory_order_relaxed);
    return hand_out(slot, bytes);
  }

  Chunk* map_oversized(std::size_t payload_bytes) {
    std::size_t total = kChunkHeaderBytes + payload_bytes;
    total = (total + kChunkBytes - 1) & ~(kChunkBytes - 1);
    admit(total);
    void* mem = map_aligned(total);
    if (mem == nullptr) {
      throw oom(total);
    }
    Chunk* c = hand_out(mem, total);
    c->oversized = true;
    return c;
  }

  // Lowest blank slot of any reservation, mapping a new reservation
  // when none is left. Caller holds mu_.
  char* take_blank_slot(std::size_t bytes) {
    for (Reservation& r : reservations_) {
      for (std::size_t w = 0; w < r.blank.size(); ++w) {
        if (r.blank[w] != 0) {
          const auto i = static_cast<std::size_t>(std::countr_zero(r.blank[w]));
          r.blank[w] &= r.blank[w] - 1;
          return r.base + (w * 64 + i) * kChunkBytes;
        }
      }
    }
    reservations_.reserve(reservations_.size() + 1);
    void* mem = map_aligned(kReservationBytes);
    if (mem == nullptr) {
      throw oom(bytes);
    }
    // A starter touches one 4 KiB page; on a THP=always host it must
    // not pin a 2 MB huge page.
    ::madvise(mem, kReservationBytes, MADV_NOHUGEPAGE);
    Reservation& r = reservations_.emplace_back();
    r.base = static_cast<char*>(mem);
    r.blank.fill(~std::uint64_t{0});
    r.blank[0] &= ~std::uint64_t{1};  // slot 0 is the one handed out
    return r.base;
  }

  // Caller holds mu_.
  void mark_blank(char* slot) {
    for (Reservation& r : reservations_) {
      if (slot >= r.base && slot < r.base + kReservationBytes) {
        const auto i = static_cast<std::size_t>(slot - r.base) / kChunkBytes;
        r.blank[i / 64] |= std::uint64_t{1} << (i % 64);
        return;
      }
    }
    assert(false && "slot outside every reservation");
  }

  // Anonymous MAP_NORESERVE mapping of `total` bytes at kChunkBytes
  // alignment: map alignment's worth of slack, then unmap the
  // misaligned head and tail. Returns nullptr when the OS refuses the
  // memory.
  static void* map_aligned(std::size_t total) {
    std::size_t span = total + kChunkBytes;
    void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (raw == MAP_FAILED) {
      return nullptr;
    }
    auto base = reinterpret_cast<std::uintptr_t>(raw);
    std::uintptr_t aligned = (base + kChunkBytes - 1) & ~(kChunkBytes - 1);
    if (aligned != base) {
      ::munmap(raw, aligned - base);
    }
    std::size_t tail = base + span - (aligned + total);
    if (tail != 0) {
      ::munmap(reinterpret_cast<void*>(aligned + total), tail);
    }
    return reinterpret_cast<void*>(aligned);
  }

  void account_live(std::size_t bytes) {
    std::size_t now =
        live_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::size_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (now > peak && !peak_bytes_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  struct alignas(64) CacheShard {
    SpinLock lock;
    Chunk* head[kChunkSizeClasses] = {};
    unsigned count[kChunkSizeClasses] = {};
    std::atomic<std::uint64_t> recycled[kChunkSizeClasses] = {};
  };

  // One address-space reservation of kReservationSlots slots. A blank
  // slot holds no chunk and no resident pages: never used, or trimmed.
  struct Reservation {
    char* base = nullptr;
    std::array<std::uint64_t, kReservationSlots / 64> blank{};
  };

  CacheShard& shard() { return cache_[thread_shard_id() % kCacheShards]; }

  CacheShard cache_[kCacheShards];
  std::mutex mu_;  // guards the shared lists and the reservations
  Chunk* free_[kChunkSizeClasses] = {};
  std::vector<Reservation> reservations_;
  std::atomic<std::uint64_t> fresh_[kChunkSizeClasses] = {};
  // The byte counters live on their own line: every acquire/release on
  // every worker hits them, and they must not share a line with the
  // mutex word or the free-list heads.
  alignas(64) std::atomic<std::size_t> live_bytes_{0};
  std::atomic<std::size_t> peak_bytes_{0};
  std::atomic<std::size_t> budget_{0};  // 0 = unlimited
};

// One node of the heap tree. Leaf heaps are bumped lock-free by their
// owning task; internal heaps only grow via promotion, which
// synchronises with either the heap mutex (coarse path locking) or the
// remote spinlock (fine-grained mode).
class Heap {
 public:
  Heap(Heap* parent, std::uint32_t depth, ChunkPool* pool)
      : parent_(parent), depth_(depth), pool_(pool) {
#ifndef NDEBUG
    if (parent_ != nullptr) {
      parent_->live_children_.fetch_add(1, std::memory_order_relaxed);
    }
#endif
  }
  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  ~Heap() {
    release_all_chunks();
#ifndef NDEBUG
    assert(live_children_.load(std::memory_order_relaxed) == 0 &&
           "a heap must outlive its children");
    if (parent_ != nullptr) {
      parent_->live_children_.fetch_sub(1, std::memory_order_relaxed);
    }
#endif
#if defined(PARMEM_TSAN)
    // Heaps live in fork2 stack frames, so a dead heap's address is
    // promptly reused by another heap at a different depth. glibc's
    // std::mutex destructor is trivial (no pthread_mutex_destroy
    // call), so without this TSan keeps the dead path lock's
    // lock-order edges and conflates the logical mutexes sharing the
    // address across time -- its deadlock detector then reports
    // cycles no live acquisition order can produce. (Live edges are
    // acyclic: LazyPathLock locks shallow-first along ancestor
    // chains and parent_ is construction-only, so the relative order
    // of two live heaps can never invert.)
    __tsan_mutex_destroy(&lock_, 0);
#endif
  }

  Heap* parent() const { return parent_; }
  std::uint32_t depth() const { return depth_; }
  std::mutex& path_lock() { return lock_; }
  SpinLock& remote_lock() { return remote_lock_; }
  ChunkPool* pool() const { return pool_; }

#ifndef NDEBUG
  // Heaps constructed with this one as their parent and not yet
  // destroyed (Debug builds only): fork2 asserts that a right branch it
  // runs inline, in this heap, has no sibling subtree still running.
  int live_children() const {
    return live_children_.load(std::memory_order_relaxed);
  }
#endif

  // True when `anc` lies strictly above this heap on its root path --
  // the descendant-enumeration test used by hierarchy-aware internal
  // collection (a heap's referents can only live in itself, its
  // descendants' frames/fields, or its owner's frames; never in
  // ancestors or cousins).
  bool is_descendant_of(const Heap* anc) const {
    for (const Heap* h = parent_; h != nullptr; h = h->parent_) {
      if (h == anc) {
        return true;
      }
    }
    return false;
  }

  // Bytes promoted INTO this heap since its last full collection --
  // the allocation-triggered internal-collection policy's pressure
  // metric. Bumped under the promotion protocol's lock but read
  // remotely, hence atomic.
  void note_remote_bytes(std::size_t n) {
    remote_bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  std::size_t remote_bytes() const {
    return remote_bytes_.load(std::memory_order_relaxed);
  }
  void reset_remote_bytes() {
    remote_bytes_.store(0, std::memory_order_relaxed);
  }

  // Current chunk-growth step (4 KiB doubling to 256 KiB). Exposed so
  // tests can pin that collections never reset the doubling schedule
  // back to the small-leaf start.
  std::size_t chunk_size_hint() const { return next_chunk_bytes_; }

  char* top() const { return top_; }
  Chunk* chunks() const { return head_; }
  Chunk* tail() const { return tail_; }
  std::size_t chunk_bytes() const { return bytes_; }
  std::size_t allocated_bytes() const {
    return allocated_full_ +
           (top_ != nullptr ? static_cast<std::size_t>(top_ - tail_->data())
                            : 0);
  }

  // Inline fast path: bump or bail. Returns null on overflow so the
  // caller can run its GC policy before acquiring a chunk. The caller
  // initialises the header.
  char* try_bump(std::size_t size) {
    char* p = top_;
    if (__builtin_expect(static_cast<std::size_t>(end_ - p) < size, 0)) {
      return nullptr;
    }
    top_ = p + size;
    return p;
  }

  // Raw bump allocation. The caller provides mutual exclusion: the
  // owning task for its leaf, or the promotion lock for an internal
  // heap. Header is initialised; fields are NOT zeroed here.
  Object* bump_alloc(std::uint32_t nptr, std::uint32_t nscalar) {
    std::size_t size = Object::size_bytes(nptr, nscalar);
    char* p = top_;
    char* nt = p + size;
    if (__builtin_expect(nt > end_, 0)) {
      return overflow_alloc(nptr, nscalar, size);
    }
    top_ = nt;
    Object* o = reinterpret_cast<Object*>(p);
    o->init_header(nptr, nscalar);
    return o;
  }

  // Header-agnostic bump: reserve `size` bytes (already object-aligned,
  // e.g. from object_bytes()) without writing a header. Same mutual
  // exclusion rules as bump_alloc.
  char* bump_raw(std::size_t size) {
    char* p = top_;
    char* nt = p + size;
    if (__builtin_expect(nt > end_, 0)) {
      return overflow_raw(size);
    }
    top_ = nt;
    return p;
  }

  // Guarantee the next bump of `size` bytes takes the fast path: opens
  // a new chunk now if the current one lacks room. Any OutOfMemory
  // surfaces HERE, with the heap untouched -- which is what lets
  // callers pre-reserve before entering a window that must not throw
  // (a claimed forwarding word mid-copy). Same mutual exclusion rules
  // as bump_alloc.
  void reserve(std::size_t size) {
    if (__builtin_expect(static_cast<std::size_t>(end_ - top_) < size, 0)) {
      open_new_chunk(size);
    }
  }

  // Snapshot the bump pointer into the tail chunk so object walkers
  // can iterate it without consulting `top_`.
  void retire_tail() {
    if (top_ != nullptr) {
      tail_->obj_end = top_;
    }
  }

  // Detach the whole chunk list (leaf GC flips it to from-space). The
  // heap is empty afterwards, survivors included.
  Chunk* detach_chunks() {
    retire_tail();
    Chunk* h = head_;
    head_ = tail_ = nullptr;
    top_ = end_ = nullptr;
    bytes_ = 0;
    allocated_full_ = 0;
    survived_bytes_ = 0;
    return h;
  }

  // Fold `child` into this heap at join: every surviving child object
  // keeps its address; only the chunk->heap back-pointers change. The
  // child's survivors count toward this heap's budget.
  void merge_from(Heap& child) {
    child.retire_tail();
    survived_bytes_ += child.survived_bytes_;
    child.survived_bytes_ = 0;
    if (child.head_ == nullptr) {
      return;
    }
    splice_retired(child.head_, child.bytes_, child.allocated_bytes());
    child.head_ = child.tail_ = nullptr;
    child.top_ = child.end_ = nullptr;
    child.bytes_ = 0;
    child.allocated_full_ = 0;
  }

  // Link one retired chunk (obj_end valid) back into this heap, as the
  // leaf collector does with an oversized survivor it keeps in place.
  void keep_chunk(Chunk* c) {
    c->next = nullptr;
    splice_retired(c, c->bytes,
                   static_cast<std::size_t>(c->obj_end - c->data()));
  }

  // Bytes that survived this heap's last collection, plus what the
  // collections of the children merged into it since kept alive.
  // Written by the owner or by a collector that has the owner stopped.
  std::size_t survived_bytes() const { return survived_bytes_; }
  void set_survived_bytes(std::size_t n) { survived_bytes_ = n; }

  // The collection budget of a heap its owner collects alone: its
  // chunks reached max(min_budget, growth x survived_bytes()).
  bool over_gc_budget(std::size_t min_budget, double growth) const {
    const auto scaled = static_cast<std::size_t>(
        static_cast<double>(survived_bytes_) * growth);
    return bytes_ >= (scaled > min_budget ? scaled : min_budget);
  }

  // To the pool's shared lists, like a collector's from-space: a heap
  // dropped on one thread (a run's root heap) must stay reusable by
  // every thread. Every fork2 child is destroyed empty, so that case
  // returns before the pool lock.
  void release_all_chunks() {
    if (Chunk* c = detach_chunks()) {
      pool_->release_list(c);
    }
  }

  // Adopt an externally built, fully retired chunk list (obj_end valid
  // on every chunk; `tail` terminates it). The current list must have
  // been detached or released first. `allocated` is the object bytes
  // the list carries; the bump pointer stays closed, so the next
  // bump_alloc opens a fresh chunk.
  void adopt_chunks(Chunk* head, Chunk* tail, std::size_t allocated) {
    assert(head_ == nullptr && "detach or release existing chunks first");
    std::size_t bytes = 0;
    for (Chunk* c = head; c != nullptr; c = c->next) {
      c->heap.store(this, std::memory_order_relaxed);
      c->from_space.store(false, std::memory_order_relaxed);
      bytes += c->bytes;
    }
    head_ = head;
    tail_ = tail;
    top_ = end_ = nullptr;
    bytes_ = bytes;
    allocated_full_ = allocated;
  }

 private:
  Object* overflow_alloc(std::uint32_t nptr, std::uint32_t nscalar,
                         std::size_t size) {
    Object* o = reinterpret_cast<Object*>(overflow_raw(size));
    o->init_header(nptr, nscalar);
    return o;
  }

  // Open a fresh chunk able to hold `size` payload bytes and make it
  // the bump target. If the pool throws (budget, failpoint, OS), the
  // heap is left fully consistent -- tail retired but nothing linked
  // or double-counted -- so the owner can collect and retry.
  void open_new_chunk(std::size_t size) {
    retire_tail();
    Chunk* c = pool_->acquire(size, next_chunk_bytes_);
    if (top_ != nullptr) {
      allocated_full_ += static_cast<std::size_t>(top_ - tail_->data());
    }
    if (!c->oversized) {
      next_chunk_bytes_ =
          c->bytes < kChunkBytes ? c->bytes << 1 : kChunkBytes;
    }
    c->heap.store(this, std::memory_order_relaxed);
    c->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = c;
    } else {
      head_ = c;
    }
    tail_ = c;
    bytes_ += c->bytes;
    top_ = c->data();
    // An oversized chunk is closed at exactly `size`: objects after the
    // big one would sit past the first kChunkBytes-aligned block, where
    // chunk_of()'s address mask no longer finds this header.
    end_ = c->oversized ? c->data() + size : c->data_limit();
  }

  // Splice the retired, null-terminated list at `first` in at the head,
  // so this heap's tail stays the active bump chunk.
  void splice_retired(Chunk* first, std::size_t bytes,
                      std::size_t allocated) {
    Chunk* last = first;
    for (Chunk* c = first; c != nullptr; c = c->next) {
      c->heap.store(this, std::memory_order_relaxed);
      c->from_space.store(false, std::memory_order_relaxed);
      last = c;
    }
    last->next = head_;
    head_ = first;
    if (tail_ == nullptr) {
      tail_ = last;
    }
    bytes_ += bytes;
    allocated_full_ += allocated;
  }

  char* overflow_raw(std::size_t size) {
    open_new_chunk(size);
    char* p = top_;
    top_ += size;
    return p;
  }

  // Cold identity: fixed after construction, read-only thereafter.
  Heap* parent_;
  std::uint32_t depth_;
  ChunkPool* pool_;
#ifndef NDEBUG
  std::atomic<int> live_children_{0};  // see live_children()
#endif

  // Owner-hot bump group, isolated on its own cache line: everything
  // the inline alloc fast path (try_bump/bump_alloc) and the chunk
  // bookkeeping behind it touch. Must not share a line with the
  // remote-writer group below -- a promoting worker bumping
  // remote_bytes_ would otherwise invalidate the owner's bump pointer
  // line on every promotion.
  alignas(64) char* top_ = nullptr;
  char* end_ = nullptr;
  Chunk* tail_ = nullptr;
  Chunk* head_ = nullptr;
  std::size_t next_chunk_bytes_ = kMinChunkBytes;  // doubles to kChunkBytes
  std::size_t bytes_ = 0;           // chunk footprint owned by this heap
  std::size_t allocated_full_ = 0;  // object bytes in retired chunks
  std::size_t survived_bytes_ = 0;  // see survived_bytes()

  // Remote group: written by OTHER workers promoting into this heap
  // (remote_bytes_ under the promotion protocol, the locks by the
  // coarse/fine promotion paths).
  alignas(64) std::atomic<std::size_t> remote_bytes_{0};  // promoted-into
  SpinLock remote_lock_;
  std::mutex lock_;
};

// Walk every object of `heap` in allocation order, invoking
// fn(Object*). Retires the tail first so the active bump chunk is
// walkable; the caller must be the owning task, or the owner must be
// quiesced (a stopped world or a merged/joined subtree).
template <class Fn>
void heap_for_each_object(Heap* heap, Fn&& fn) {
  heap->retire_tail();
  for (Chunk* c = heap->chunks(); c != nullptr; c = c->next) {
    char* p = c->data();
    char* limit = c->obj_end;
    while (p < limit) {
      Object* o = reinterpret_cast<Object*>(p);
      fn(o);
      p += o->size();
    }
  }
}

}  // namespace parmem
