// Scheduler-layer tests: Chase-Lev deque semantics and torture, the
// push-vs-park wakeup protocol, the safepoint gate's StopScope and
// registry, oversubscribed pools (threads > cores,
// the contended-steal regime the 1-core CI box can actually produce),
// sharded-stats exactness, and the ChunkPool's size-classed recycling
// (per-thread caches, steady-state reuse, trim, ASan poisoning).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "bench_common/workloads.hpp"
#include "core/deque.hpp"
#include "core/heap.hpp"
#include "core/hier_runtime.hpp"
#include "core/sched.hpp"
#include "runtimes/localheap_runtime.hpp"
#include "runtimes/seq_runtime.hpp"
#include "runtimes/stw_runtime.hpp"
#include "tests/test_util.hpp"

namespace {

using namespace parmem;
using namespace parmem::bench;

struct Item {
  int id = 0;
  std::atomic<int> takes{0};
};

// Single-threaded semantics: owner end is LIFO, thief end is FIFO,
// empty pops/steals return null and leave the deque usable.
PARMEM_TEST(deque_lifo_fifo_semantics) {
  ChaseLevDeque<Item> dq(4);
  CHECK(dq.pop() == nullptr);
  CHECK(dq.steal() == nullptr);

  Item items[6];
  for (int i = 0; i < 6; ++i) {
    items[i].id = i;
    dq.push(&items[i]);
  }
  // Thief end takes the oldest.
  CHECK_EQ(dq.steal()->id, 0);
  CHECK_EQ(dq.steal()->id, 1);
  // Owner end takes the newest.
  CHECK_EQ(dq.pop()->id, 5);
  CHECK_EQ(dq.pop()->id, 4);
  CHECK_EQ(dq.steal()->id, 2);
  CHECK_EQ(dq.pop()->id, 3);
  CHECK(dq.pop() == nullptr);
  CHECK(dq.steal() == nullptr);
  // Still usable after draining.
  dq.push(&items[0]);
  CHECK_EQ(dq.pop()->id, 0);
}

// Index wraparound (many push/pop cycles around a tiny ring) and ring
// growth (pushes outrunning takes), including growth of a wrapped
// window.
PARMEM_TEST(deque_wraparound_and_growth) {
  ChaseLevDeque<Item> dq(2);
  CHECK_EQ(dq.capacity(), 2u);

  Item a, b;
  // Wrap the indices far past the initial capacity without growing.
  for (int i = 0; i < 1000; ++i) {
    dq.push(&a);
    dq.push(&b);
    CHECK(dq.pop() == &b);
    CHECK(dq.steal() == &a);
  }
  CHECK_EQ(dq.capacity(), 2u);

  // Now force growth from a wrapped position: the live window spans
  // the ring seam when the third push arrives.
  std::vector<Item> items(300);
  for (int i = 0; i < 300; ++i) {
    items[i].id = i;
    dq.push(&items[i]);
  }
  CHECK(dq.capacity() >= 300u);
  // Everything survives the copies, in order, from both ends.
  for (int i = 0; i < 150; ++i) {
    CHECK_EQ(dq.steal()->id, i);
  }
  for (int i = 299; i >= 150; --i) {
    CHECK_EQ(dq.pop()->id, i);
  }
  CHECK(dq.pop() == nullptr);
}

// Torture: one owner doing bursty push/pop against several thieves,
// over a deliberately tiny initial ring so growth and wraparound
// happen live under contention. Every item must be taken exactly
// once (the pop-vs-steal Dekker race never duplicates or drops), and
// the deque must end empty. This is the TSan row's main course.
PARMEM_TEST(deque_torture_multithief) {
  constexpr int kItems = 20000;
  constexpr unsigned kThieves = 3;
  std::vector<Item> items(kItems);
  for (int i = 0; i < kItems; ++i) {
    items[i].id = i;
  }

  ChaseLevDeque<Item> dq(2);
  std::atomic<bool> stop{false};
  std::atomic<int> taken{0};

  std::vector<std::thread> thieves;
  for (unsigned t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (Item* it = dq.steal()) {
          it->takes.fetch_add(1, std::memory_order_relaxed);
          taken.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  std::uint64_t rng = 0x2545F4914F6CDD1Dull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  int pushed = 0;
  while (pushed < kItems) {
    for (std::uint64_t burst = 1 + next() % 8; burst > 0 && pushed < kItems;
         --burst) {
      dq.push(&items[pushed++]);
    }
    for (std::uint64_t pops = next() % 4; pops > 0; --pops) {
      if (Item* it = dq.pop()) {
        it->takes.fetch_add(1, std::memory_order_relaxed);
        taken.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Owner drain: a null pop means the deque is empty (a lost
  // last-element race means a thief has it).
  while (Item* it = dq.pop()) {
    it->takes.fetch_add(1, std::memory_order_relaxed);
    taken.fetch_add(1, std::memory_order_relaxed);
  }
  // Thieves already hold any stragglers; wait for their tallies.
  while (taken.load(std::memory_order_acquire) < kItems) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : thieves) {
    t.join();
  }

  CHECK_EQ(taken.load(), kItems);
  for (int i = 0; i < kItems; ++i) {
    CHECK_EQ(items[i].takes.load(), 1);
  }
  CHECK(dq.pop() == nullptr);
  CHECK(dq.steal() == nullptr);
}

struct FlagTask : WorkStealPool::Task {
  std::atomic<bool> done{false};
  void execute() override { done.store(true, std::memory_order_release); }
};

// Wakeup liveness: push single tasks into an otherwise-idle pool, with
// pauses long enough that the workers have parked on the condvar, and
// do NOT help from the pushing thread -- each task completes only if
// the push-side wakeup actually reaches a parked worker. With a lost
// wakeup this degrades to the parker's safety-net timeout per round
// and the watchdog/ctest timeout catches it.
PARMEM_TEST(sched_wakeup_liveness) {
  WorkStealPool pool(4);
  WorkStealPool::Scope scope(&pool);
  for (int round = 0; round < 100; ++round) {
    if (round % 10 == 0) {
      // Let the workers spin down and park.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    FlagTask t;
    pool.push(&t);
    while (!t.done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}

// Oversubscription: more workers than the box has cores, so steals,
// preemption mid-pop, and parked-thief wakeups all actually happen.
// Checksums must match the sequential reference on both a pure
// fork-heavy kernel and an imperative promoting one.
PARMEM_TEST(sched_oversubscribed_pool) {
  Sizes z;
  z.scale = 0.001;
  z.fib_n = 18;
  z.usp_side = 10;
  unsigned cores = std::thread::hardware_concurrency();
  unsigned workers = (cores == 0 ? 1 : cores) * 2 + 2;  // always > cores

  SeqRuntime seq;
  const std::int64_t fib_ref = bench_fib(seq, z).checksum;
  const std::int64_t usp_ref = bench_usp_tree(seq, z).checksum;

  {
    HierRuntime rt(HierRuntime::Options{.workers = workers});
    CHECK_EQ(bench_fib(rt, z).checksum, fib_ref);
    CHECK_EQ(bench_usp_tree(rt, z).checksum, usp_ref);
  }
  {
    StwRuntime rt(StwRuntime::Options{.workers = workers});
    CHECK_EQ(bench_fib(rt, z).checksum, fib_ref);
    CHECK_EQ(bench_usp_tree(rt, z).checksum, usp_ref);
  }
  {
    LhRuntime rt(LhRuntime::Options{.workers = workers});
    CHECK_EQ(bench_fib(rt, z).checksum, fib_ref);
    CHECK_EQ(bench_usp_tree(rt, z).checksum, usp_ref);
  }
}

// A collection that throws inside a StopScope must still end its stop:
// the parked task resumes, and the next begin_stop wins again instead
// of parking forever behind a stop nobody ends (the test watchdog is
// the backstop for that hang).
PARMEM_TEST(sched_stop_scope_exception_releases_gate) {
  SafepointGate gate(2);
  std::atomic<bool> ready{false};
  std::atomic<bool> done{false};
  gate.activate(0);
  std::thread mutator([&] {
    gate.activate(1);
    ready.store(true, std::memory_order_release);
    while (!done.load(std::memory_order_acquire)) {
      if (gate.pending()) {
        gate.park();
      }
      std::this_thread::yield();
    }
    gate.deactivate(1);
  });
  while (!ready.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  bool caught = false;
  try {
    StopScope stop(gate);
    CHECK(static_cast<bool>(stop));
    CHECK_EQ(gate.parked(), 1u);
    throw std::runtime_error("collection failed");
  } catch (const std::runtime_error&) {
    caught = true;
  }
  CHECK(caught);
  CHECK(!gate.pending());
  {
    StopScope again(gate);
    CHECK(static_cast<bool>(again));
    CHECK_EQ(gate.parked(), 1u);
  }
  done.store(true, std::memory_order_release);
  mutator.join();
  gate.deactivate(0);
}

// The stop-the-world runtime stops through a SafepointGate like the
// others, so the watchdog's GateRegistry sees it for exactly the
// runtime's lifetime.
PARMEM_TEST(stw_gate_visible_to_watchdog_registry) {
  auto live_gates = [] {
    unsigned n = 0;
    GateRegistry::for_each([&](SafepointGate*) { ++n; });
    return n;
  };
  const unsigned before = live_gates();
  {
    StwRuntime::Options o;
    o.workers = 2;
    StwRuntime rt(o);
    CHECK_EQ(live_gates(), before + 1);
    Sizes z;
    z.fib_n = 12;
    (void)bench_fib(rt, z);
    CHECK_EQ(live_gates(), before + 1);
  }
  CHECK_EQ(live_gates(), before);
}

template <class RT>
int fork_tree(typename RT::Ctx& c, int depth) {
  using Ctx = typename RT::Ctx;
  if (depth == 0) {
    return 1;
  }
  auto [a, b] = RT::fork2(
      c, {}, [&](Ctx& cc) { return fork_tree<RT>(cc, depth - 1); },
      [&](Ctx& cc) { return fork_tree<RT>(cc, depth - 1); });
  return a + b;
}

// Sharded stats must aggregate to EXACTLY what the old single
// StatsCell recorded: a full binary fork tree of depth d performs
// 2^d - 1 fork2 calls regardless of worker count or steal schedule,
// so snapshot().forks is deterministic across all four runtimes --
// and doubles exactly when the same runtime instance runs it twice
// (counters from different workers' shards summing on read).
PARMEM_TEST(stats_shard_aggregation_exact) {
  constexpr int kDepth = 6;
  constexpr std::uint64_t kForks = (1u << kDepth) - 1;  // 63
  constexpr int kLeaves = 1 << kDepth;

  auto check = [&](auto& rt) {
    using RT = std::remove_reference_t<decltype(rt)>;
    int leaves =
        rt.run([&](typename RT::Ctx& c) { return fork_tree<RT>(c, kDepth); });
    CHECK_EQ(leaves, kLeaves);
    CHECK_EQ(rt.stats().forks, kForks);
    leaves =
        rt.run([&](typename RT::Ctx& c) { return fork_tree<RT>(c, kDepth); });
    CHECK_EQ(leaves, kLeaves);
    CHECK_EQ(rt.stats().forks, 2 * kForks);
  };

  {
    SeqRuntime rt;
    check(rt);
  }
  for (unsigned w : {1u, 3u}) {
    {
      StwRuntime rt(StwRuntime::Options{.workers = w});
      check(rt);
    }
    {
      LhRuntime rt(LhRuntime::Options{.workers = w});
      check(rt);
    }
    {
      HierRuntime rt(HierRuntime::Options{.workers = w});
      check(rt);
    }
  }
}

// The per-thread chunk caches must preserve the pool's byte
// accounting and budget enforcement exactly: cached chunks are not
// live, reuse comes from the cache (same chunk back), and a budget
// hit throws on the cache path just as it does on the fresh path.
PARMEM_TEST(chunkpool_sharded_cache_accounting) {
  ChunkPool pool;
  Chunk* a = pool.acquire(kChunkPayload);
  CHECK_EQ(pool.live_bytes(), kChunkBytes);
  pool.release(a);
  CHECK_EQ(pool.live_bytes(), 0u);

  // Reuse hits the calling thread's cache: same chunk, relived.
  Chunk* b = pool.acquire(kChunkPayload);
  CHECK(b == a);
  CHECK_EQ(pool.live_bytes(), kChunkBytes);
  pool.release(b);

  // Budget is enforced before the cache hands anything out.
  pool.set_budget(kChunkBytes);
  Chunk* c = pool.acquire(kChunkPayload);
  bool threw = false;
  try {
    (void)pool.acquire(kChunkPayload);
  } catch (const OutOfMemory&) {
    threw = true;
  }
  CHECK(threw);
  CHECK_EQ(pool.live_bytes(), kChunkBytes);
  pool.release(c);
  CHECK_EQ(pool.live_bytes(), 0u);
  pool.set_budget(0);

  // Starter classes recycle the same way, each class on its own: a
  // released 4 KiB chunk comes back as the same kChunkBytes-aligned
  // slot, and never serves an 8 KiB request.
  Chunk* s4 = pool.acquire(0, kMinChunkBytes);
  CHECK_EQ(s4->bytes, kMinChunkBytes);
  CHECK_EQ(reinterpret_cast<std::uintptr_t>(s4) % kChunkBytes, 0u);
  pool.release(s4);
  Chunk* s8 = pool.acquire(0, 2 * kMinChunkBytes);
  CHECK(s8 != s4);
  CHECK_EQ(s8->bytes, 2 * kMinChunkBytes);
  Chunk* s4b = pool.acquire(0, kMinChunkBytes);
  CHECK(s4b == s4);
  CHECK_EQ(s4b->bytes, kMinChunkBytes);
  CHECK_EQ(pool.live_bytes(), 3 * kMinChunkBytes);
  Stats n = pool.with_chunk_counts(Stats{});
  CHECK_EQ(n.chunks_fresh[0], 1u);
  CHECK_EQ(n.chunks_recycled[0], 1u);
  CHECK_EQ(n.chunks_fresh[1], 1u);
  CHECK_EQ(n.chunks_recycled[1], 0u);
  CHECK_EQ(n.chunks_fresh[kChunkSizeClasses - 1], 1u);
  CHECK_EQ(n.chunks_recycled[kChunkSizeClasses - 1], 2u);  // b and c

  // A budget hit on a small-class cache pop throws before the pop:
  // live bytes and counters unchanged, the chunk still cached.
  pool.release(s4b);
  pool.set_budget(pool.live_bytes() + kMinChunkBytes - 1);
  threw = false;
  try {
    (void)pool.acquire(0, kMinChunkBytes);
  } catch (const OutOfMemory&) {
    threw = true;
  }
  CHECK(threw);
  CHECK_EQ(pool.live_bytes(), 2 * kMinChunkBytes);
  CHECK_EQ(pool.with_chunk_counts(Stats{}).chunks_recycled[0], 1u);
  pool.set_budget(0);
  CHECK(pool.acquire(0, kMinChunkBytes) == s4);
  pool.release(s4);
  pool.release(s8);
  CHECK_EQ(pool.live_bytes(), 0u);
}

// Once a fork-heavy kernel has run a few times, every chunk it needs
// is pooled: further runs carve no fresh slot, so a fork's starter
// chunk costs a pop, not page faults.
PARMEM_TEST(chunkpool_steady_fib_carves_no_fresh_slots) {
  Sizes z;
  z.fib_n = 27;
  SeqRuntime seq;
  const std::int64_t ref = bench_fib(seq, z).checksum;
  HierRuntime::Options o;
  o.workers = 1;
  HierRuntime rt(o);
  for (int i = 0; i < 3; ++i) {
    CHECK_EQ(bench_fib(rt, z).checksum, ref);
  }
  const Stats warm = rt.stats();
  for (int i = 0; i < 3; ++i) {
    CHECK_EQ(bench_fib(rt, z).checksum, ref);
  }
  const Stats d = rt.stats() - warm;
  std::uint64_t fresh = 0;
  std::uint64_t recycled = 0;
  for (unsigned k = 0; k < kChunkSizeClasses; ++k) {
    fresh += d.chunks_fresh[k];
    recycled += d.chunks_recycled[k];
  }
  CHECK_EQ(fresh, 0u);
  CHECK(recycled > 0);
}

// A collector frees its whole from-space at once with release_list.
// Those chunks go to the shared lists, not the collecting thread's
// cache, so another thread's next acquire of the class reuses one of
// them instead of carving a fresh slot.
PARMEM_TEST(chunkpool_collector_release_reaches_other_threads) {
  ChunkPool pool;
  Chunk* list = nullptr;
  std::vector<Chunk*> freed;
  for (int i = 0; i < 3; ++i) {
    Chunk* c = pool.acquire(0, kMinChunkBytes);
    c->next = list;
    list = c;
    freed.push_back(c);
  }
  pool.release_list(list);
  CHECK_EQ(pool.live_bytes(), 0u);
  Chunk* got = nullptr;
  std::thread other([&] { got = pool.acquire(0, kMinChunkBytes); });
  other.join();
  CHECK(got == freed[0] || got == freed[1] || got == freed[2]);
  Stats n = pool.with_chunk_counts(Stats{});
  CHECK_EQ(n.chunks_fresh[0], 3u);
  CHECK_EQ(n.chunks_recycled[0], 1u);
  pool.release(got);
  CHECK_EQ(pool.live_bytes(), 0u);
}

std::size_t resident_pages(const void* addr, std::size_t bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((bytes + page - 1) / page);
  CHECK_EQ(::mincore(const_cast<void*>(addr), bytes, vec.data()), 0);
  std::size_t n = 0;
  for (unsigned char v : vec) {
    n += v & 1;
  }
  return n;
}

// trim(0) hands every pooled slot's pages back to the OS, whatever its
// class and whether it sat in a per-thread cache or the shared list,
// and the trimmed slots stay reusable.
PARMEM_TEST(chunkpool_trim_returns_pooled_pages) {
  ChunkPool pool;
  std::vector<Chunk*> chunks;
  for (unsigned k = 0; k < kChunkSizeClasses; ++k) {
    // Enough 4 KiB chunks to spill past the per-thread cache.
    const int n = k == 0 ? 300 : 6;
    for (int i = 0; i < n; ++i) {
      Chunk* c = pool.acquire(0, kMinChunkBytes << k);
      std::memset(c->data(), 0xab, c->bytes - kChunkHeaderBytes);
      chunks.push_back(c);
    }
  }
  std::size_t resident = 0;
  for (Chunk* c : chunks) {
    resident += resident_pages(c, kChunkBytes);
  }
  CHECK(resident > 0);
  for (Chunk* c : chunks) {
    pool.release(c);
  }
  pool.trim(0);
  for (Chunk* c : chunks) {
    CHECK_EQ(resident_pages(c, kChunkBytes), 0u);
  }
  // A trimmed slot comes back zero-filled, as a fresh slot.
  const Stats before = pool.with_chunk_counts(Stats{});
  Chunk* c = pool.acquire(0, kMinChunkBytes);
  CHECK_EQ(static_cast<unsigned char>(c->data()[0]), 0u);
  CHECK_EQ(pool.with_chunk_counts(Stats{}).chunks_fresh[0],
           before.chunks_fresh[0] + 1);
  pool.release(c);
}

#if defined(PARMEM_ASAN)
// Pooling keeps ASan's use-after-release coverage: a released chunk's
// payload is poisoned until the pool hands the chunk out again; the
// header, which carries the free list, stays addressable.
PARMEM_TEST(chunkpool_asan_poisons_released_payload) {
  ChunkPool pool;
  for (std::size_t bytes : {kMinChunkBytes, kChunkBytes}) {
    Chunk* c = pool.acquire(0, bytes);
    CHECK(!__asan_address_is_poisoned(c->data()));
    pool.release(c);
    CHECK(__asan_address_is_poisoned(c->data()));
    CHECK(__asan_address_is_poisoned(c->data_limit() - 1));
    CHECK(!__asan_address_is_poisoned(c));
    Chunk* again = pool.acquire(0, bytes);
    CHECK(again == c);
    CHECK(!__asan_address_is_poisoned(c->data()));
    CHECK(!__asan_address_is_poisoned(c->data_limit() - 1));
    pool.release(again);
  }
}
#endif

}  // namespace
