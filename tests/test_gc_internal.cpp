// Hierarchy-aware internal-heap collection (core/gc_internal.hpp):
// collecting a heap whose owner is blocked in fork2, while descendants
// still hold pointers (fields, frames, and stale promotion-forwarding
// words) into it. Covers forwarding-chase through a heap collected
// mid-chain, sharing preservation, descendant enumeration, the
// allocation-triggered policy, and stats accounting.
#include <cstdint>
#include <vector>

#include "core/gc_internal.hpp"
#include "core/hier_runtime.hpp"
#include "tests/test_util.hpp"

namespace parmem {
namespace {

using Ctx = HierRuntime::Ctx;

// Enables the internal-collection machinery (registry, safepoint gate)
// without any automatic trigger, so tests drive collections explicitly
// with collect_internal_now().
HierRuntime::Options manual_internal(unsigned workers = 1) {
  HierRuntime::Options o;
  o.workers = workers;
  o.gc_internal_threshold = ~std::size_t{0};
  return o;
}

// A child promotes live data and garbage into the root heap, then
// collects that heap while the root task is still blocked in fork2.
// The owner's Local and the child's stale reference must both survive
// the relocation.
PARMEM_TEST(internal_gc_collects_busy_internal_heap) {
  HierRuntime rt(manual_internal());
  rt.run([&rt](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(2, 0));
    HierRuntime::fork2(
        ctx, {box},
        [box, &rt](Ctx& c) {
          RootFrame f(c);
          // First promotion: becomes garbage in the root heap once the
          // slot is overwritten below.
          Object* dead = c.alloc(0, 1);
          Ctx::init_i64(dead, 0, 1);
          c.write_ptr(box.get(), 0, dead);
          Object* live = c.alloc(0, 1);
          Ctx::init_i64(live, 0, 7);
          c.write_ptr(box.get(), 0, live);
          Local keep = f.local(live);
          // Kill the stale originals in this leaf first: their
          // forwarding words would otherwise (correctly) keep the dead
          // master alive through the internal collection.
          c.collect_now();
          std::uint64_t before = rt.stats().internal_gc_count;
          std::size_t root_bytes_before =
              heap_of(Object::chase(keep.get()))->allocated_bytes();
          c.collect_internal_now();
          Stats s = rt.stats();
          CHECK_EQ(s.internal_gc_count, before + 1);
          // The dead master was reclaimed: the root heap shrank.
          Heap* root_heap = heap_of(Object::chase(keep.get()));
          CHECK(root_heap->allocated_bytes() < root_bytes_before);
          // The child's rooted reference was rewritten to the new copy
          // and still reads the right value.
          CHECK_EQ(Ctx::read_i64_mut(keep.get(), 0), 7);
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(box.get(), 0), 0), 7);
    return 0;
  });
}

// A forwarding chain leaf -> middle heap -> root heap, where the
// MIDDLE heap is collected mid-chain: the stale copy it held dies, and
// the grandchild's forwarding word is shortened past it, so chasing
// the original raw pointer still reaches the master.
PARMEM_TEST(internal_gc_forwarding_chase_through_collected_heap) {
  HierRuntime rt(manual_internal());
  rt.run([](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box0 = frame.local(ctx.alloc(1, 0));  // root-heap anchor
    HierRuntime::fork2(
        ctx, {box0},
        [box0](Ctx& c1) {
          RootFrame f1(c1);
          Local box1 = f1.local(c1.alloc(1, 0));  // middle-heap anchor
          HierRuntime::fork2(
              c1, {box0, box1},
              [box0, box1](Ctx& g) {
                // Promote the cell into the middle heap...
                Object* cell = g.alloc(0, 1);
                Ctx::init_i64(cell, 0, 42);
                g.write_ptr(box1.get(), 0, cell);
                // ...then promote that master onward into the root
                // heap: cell -> M1 (middle) -> M2 (root).
                g.write_ptr(box0.get(), 0, Ctx::read_ptr(box1.get(), 0));
                CHECK(Object::chase(cell) ==
                      Object::chase(Ctx::read_ptr(box0.get(), 0)));
                // Collect every promoted-into heap (middle AND root)
                // while their owners sit blocked in fork2. M1 is stale
                // and dies; cell's forwarding word must be shortened
                // past the collected middle heap.
                g.collect_internal_now();
                // The chase through the original raw pointer still
                // lands on the (relocated) master...
                CHECK_EQ(Ctx::read_i64_mut(cell, 0), 42);
                CHECK(Object::chase(cell) ==
                      Object::chase(Ctx::read_ptr(box0.get(), 0)));
                // ...and writes through the stale pointer hit the same
                // master the root sees.
                Ctx::write_i64(cell, 0, 43);
                CHECK_EQ(
                    Ctx::read_i64_mut(Ctx::read_ptr(box0.get(), 0), 0), 43);
                return std::int64_t{0};
              },
              [](Ctx&) { return std::int64_t{0}; });
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(box0.get(), 0), 0), 43);
    return 0;
  });
}

// Diamond + cycle promoted into the root heap, internal-collected, and
// read back after the join: sharing (one hub, not two) and the cycle
// must survive the relocation.
PARMEM_TEST(internal_gc_preserves_sharing_and_cycles) {
  HierRuntime rt(manual_internal());
  rt.run([](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(2, 0));
    HierRuntime::fork2(
        ctx, {box},
        [box](Ctx& c) {
          Object* hub = c.alloc(1, 1);
          Ctx::init_i64(hub, 0, 31337);
          Object* a = c.alloc(1, 0);
          Ctx::init_ptr(a, 0, hub);
          Object* b = c.alloc(1, 0);
          Ctx::init_ptr(b, 0, hub);
          c.write_ptr(hub, 0, a);  // cycle hub -> a -> hub
          c.write_ptr(box.get(), 0, a);
          c.write_ptr(box.get(), 1, b);
          c.collect_now();  // drop the stale originals in this leaf
          c.collect_internal_now();
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    Object* a = Ctx::read_ptr(box.get(), 0);
    Object* b = Ctx::read_ptr(box.get(), 1);
    Object* ha = Ctx::read_ptr(a, 0);
    Object* hb = Ctx::read_ptr(b, 0);
    CHECK(ha == hb);  // the hub was copied once, not per parent
    CHECK_EQ(Ctx::read_i64_mut(ha, 0), 31337);
    CHECK(Ctx::read_ptr(ha, 0) == a);  // cycle intact
    return 0;
  });
}

// Descendant enumeration over the live heap registry: at fork depth 2
// on the left spine there are three heaps (root, left child, left
// grandchild); exactly two descend from the root and exactly one from
// the left child. Deterministic with one worker: a right branch gets a
// heap only when stolen, and runs inline in its forker's heap
// otherwise.
PARMEM_TEST(internal_gc_descendant_enumeration) {
  HierRuntime rt(manual_internal(1));
  rt.run([&rt](Ctx& ctx) {
    Heap* root_heap = ctx.leaf_heap();
    HierRuntime::fork2(
        ctx, {},
        [root_heap, &rt](Ctx& c1) {
          Heap* mid_heap = c1.leaf_heap();
          CHECK(mid_heap->is_descendant_of(root_heap));
          HierRuntime::fork2(
              c1, {},
              [root_heap, mid_heap, &rt](Ctx& g) {
                std::vector<Heap*> heaps = rt.snapshot_heaps();
                CHECK_EQ(heaps.size(), 3u);
                std::size_t below_root = 0;
                std::size_t below_mid = 0;
                for (Heap* h : heaps) {
                  below_root += h->is_descendant_of(root_heap);
                  below_mid += h->is_descendant_of(mid_heap);
                }
                CHECK_EQ(below_root, 2u);
                CHECK_EQ(below_mid, 1u);
                CHECK(g.leaf_heap()->is_descendant_of(mid_heap));
                CHECK(g.leaf_heap()->is_descendant_of(root_heap));
                CHECK(!root_heap->is_descendant_of(g.leaf_heap()));
                return std::int64_t{0};
              },
              [](Ctx&) { return std::int64_t{0}; });
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    return 0;
  });
}

// Stats accounting: one forced internal collection, billed to the
// owning runtime as both a collection and an internal collection, with
// bytes-copied exactly the live set of the collected heap (the box the
// root task allocated plus the eight promoted masters).
PARMEM_TEST(internal_gc_stats_match_live_set) {
  constexpr std::uint32_t kCells = 8;
  HierRuntime rt(manual_internal());
  rt.run([&rt](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(kCells, 0));
    HierRuntime::fork2(
        ctx, {box},
        [box, &rt](Ctx& c) {
          for (std::uint32_t i = 0; i < kCells; ++i) {
            Object* cell = c.alloc(0, 1);
            Ctx::init_i64(cell, 0, i + 1);
            c.write_ptr(box.get(), i, cell);
          }
          Stats before = rt.stats();
          c.collect_internal_now();
          Stats d = rt.stats() - before;
          CHECK_EQ(d.internal_gc_count, 1u);
          CHECK_EQ(d.gc_count, 1u);  // an internal collection IS a collection
          const std::uint64_t live =
              Object::size_bytes(kCells, 0) +
              kCells * Object::size_bytes(0, 1);
          CHECK_EQ(d.internal_gc_bytes, live);
          CHECK_EQ(d.gc_bytes_copied, live);
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    for (std::uint32_t i = 0; i < kCells; ++i) {
      CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(box.get(), i), 0), i + 1);
    }
    return 0;
  });
}

// The allocation-triggered policy: with a small gc_internal_threshold,
// promotions into the busy root heap ring the doorbell and the next
// safepoint (an allocation slow path or fork2 boundary) collects it --
// no manual collect_internal_now involved.
PARMEM_TEST(internal_gc_threshold_triggers_at_safepoints) {
  constexpr std::uint32_t kSlots = 64;
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.gc_internal_threshold = 1u << 10;
  HierRuntime rt(opts);
  rt.run([&rt](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(kSlots, 0));
    // Each branch owns a disjoint half of the sink's slots (racing the
    // same slot would be a language-level program race).
    auto branch = [box](std::uint32_t base) {
      return [box, base](Ctx& c) {
        for (std::uint32_t i = base; i < base + kSlots / 2; ++i) {
          Object* cell = c.alloc(0, 15);  // 128-byte promoted payloads
          Ctx::init_i64(cell, 0, i);
          c.write_ptr(box.get(), i, cell);
          // Churn allocations to reach the chunk-overflow safepoint.
          for (int j = 0; j < 64; ++j) {
            Object* junk = c.alloc(0, 15);
            Ctx::init_i64(junk, 0, j);
          }
        }
        return std::int64_t{0};
      };
    };
    HierRuntime::fork2(ctx, {box}, branch(0), branch(kSlots / 2));
    CHECK(rt.stats().internal_gc_count > 0);
    CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(box.get(), 0), 0), 0);
    return 0;
  });
}

// The parallel-team variant must agree with the sequential one: same
// survivors, same values, internal collections still billed.
PARMEM_TEST(internal_gc_parallel_team_equivalent) {
  for (unsigned team : {0u, 3u}) {
    HierRuntime::Options opts = manual_internal();
    opts.gc_parallel_team = team;
    HierRuntime rt(opts);
    std::int64_t got = rt.run([&rt, team](Ctx& ctx) -> std::int64_t {
      RootFrame frame(ctx);
      constexpr std::uint32_t kCells = 32;
      Local box = frame.local(ctx.alloc(kCells, 0));
      auto [sum, ignored] = HierRuntime::fork2(
          ctx, {box},
          [box, &rt, team](Ctx& c) {
            for (std::uint32_t i = 0; i < kCells; ++i) {
              Object* cell = c.alloc(0, 1);
              Ctx::init_i64(cell, 0, 3 * i + 1);
              c.write_ptr(box.get(), i, cell);
            }
            std::uint64_t before = rt.stats().internal_gc_count;
            c.collect_internal_now();
            CHECK_EQ(rt.stats().internal_gc_count, before + 1);
            std::int64_t s = 0;
            for (std::uint32_t i = 0; i < kCells; ++i) {
              s += Ctx::read_i64_mut(Ctx::read_ptr(box.get(), i), 0);
            }
            return s;
          },
          [](Ctx&) { return std::int64_t{0}; });
      (void)ignored;
      return sum;
    });
    constexpr std::int64_t kWant = 32 * 1 + 3 * (31 * 32 / 2);
    CHECK_EQ(got, kWant);
  }
}

}  // namespace
}  // namespace parmem
