// Promotion correctness: transitive closures (lists, diamonds, cycles)
// survive promotion with graph shape and identity intact, in both the
// coarse path-locking mode and the fine-grained CAS-claim mode,
// concurrent promoters into the same ancestor heap do not corrupt it,
// and closures that reach a heap between the target and the writer's
// leaf keep a single master even when cousins race to lift them.
#include <atomic>
#include <cstdint>

#include "core/hier_runtime.hpp"
#include "tests/test_util.hpp"

namespace parmem {
namespace {

using Ctx = HierRuntime::Ctx;

// Builds a child-local list of n nodes [ptr, scalar] with values
// n-1..0 from head, publishes it into the parent box, and checks the
// promoted list from the parent after the join.
void promote_list_scenario(PromotionMode mode, int n) {
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.promotion = mode;
  HierRuntime rt(opts);
  rt.run([&rt, n](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    HierRuntime::fork2(
        ctx, {box},
        [box, n](Ctx& c) {
          RootFrame f(c);
          Local head = f.local(nullptr);
          for (int i = 0; i < n; ++i) {
            Object* node = c.alloc(1, 1);
            Ctx::init_i64(node, 0, i);
            node->set_ptr_relaxed(0, head.get());
            head.set(node);
          }
          c.write_ptr(box.get(), 0, head.get());  // promotes all n nodes
          // The stale head still reaches every element via barriers.
          std::int64_t expect = n - 1;
          for (Object* p = head.get(); p != nullptr; p = Ctx::read_ptr(p, 0)) {
            CHECK_EQ(c.read_i64_mut(p, 0), expect);
            --expect;
          }
          CHECK_EQ(expect, -1);
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });

    // Parent-side traversal of the promoted masters.
    std::int64_t expect = n - 1;
    for (Object* p = Ctx::read_ptr(box.get(), 0); p != nullptr;
         p = Ctx::read_ptr(p, 0)) {
      CHECK_EQ(heap_of(Object::chase(p))->depth(), 0u);
      CHECK_EQ(Ctx::read_i64_mut(p, 0), expect);
      --expect;
    }
    CHECK_EQ(expect, -1);
    Stats s = rt.stats();
    CHECK_EQ(s.promotions, 1u);
    CHECK_EQ(s.promoted_objects, static_cast<std::uint64_t>(n));
    return 0;
  });
}

PARMEM_TEST(promote_list_coarse) {
  promote_list_scenario(PromotionMode::kCoarseLocking, 100);
}

PARMEM_TEST(promote_list_fine) {
  promote_list_scenario(PromotionMode::kFineGrained, 100);
}

// Diamond sharing and a 2-cycle: promotion must keep identity (the
// shared node is copied once) and terminate on cycles.
void promote_shape_scenario(PromotionMode mode) {
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.promotion = mode;
  HierRuntime rt(opts);
  rt.run([](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    HierRuntime::fork2(
        ctx, {box},
        [box](Ctx& c) {
          RootFrame f(c);
          // top -> {a, b}; a -> shared; b -> shared; shared <-> top (cycle)
          Local shared = f.local(c.alloc(1, 1));
          Ctx::init_i64(shared.get(), 0, 777);
          Local a = f.local(c.alloc(1, 0));
          Local b = f.local(c.alloc(1, 0));
          Local top = f.local(c.alloc(2, 0));
          c.write_ptr(a.get(), 0, shared.get());
          c.write_ptr(b.get(), 0, shared.get());
          c.write_ptr(top.get(), 0, a.get());
          c.write_ptr(top.get(), 1, b.get());
          c.write_ptr(shared.get(), 0, top.get());  // cycle back
          c.write_ptr(box.get(), 0, top.get());     // promote the lot
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });

    Object* top = Ctx::read_ptr(box.get(), 0);
    Object* a = Ctx::read_ptr(top, 0);
    Object* b = Ctx::read_ptr(top, 1);
    Object* sa = Object::chase(Ctx::read_ptr(a, 0));
    Object* sb = Object::chase(Ctx::read_ptr(b, 0));
    CHECK(sa == sb);  // diamond: single master for the shared node
    CHECK_EQ(Ctx::read_i64_mut(sa, 0), 777);
    CHECK(Object::chase(Ctx::read_ptr(sa, 0)) == Object::chase(top));  // cycle
    // A write through one arm is visible through the other.
    Ctx::write_i64(sa, 0, 778);
    CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(b, 0), 0), 778);
    return 0;
  });
}

PARMEM_TEST(promote_diamond_cycle_coarse) {
  promote_shape_scenario(PromotionMode::kCoarseLocking);
}

PARMEM_TEST(promote_diamond_cycle_fine) {
  promote_shape_scenario(PromotionMode::kFineGrained);
}

// Both children repeatedly promote fresh objects into their own slot
// of a shared parent array: exercises concurrent promotion into one
// ancestor heap under each protocol. The right branch is forced onto
// the other worker, so it runs in a child heap of its own (unstolen, it
// would run in the parent heap, and its writes would not promote).
void concurrent_promotion_scenario(PromotionMode mode) {
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.promotion = mode;
  HierRuntime rt(opts);
  constexpr int kIters = 20000;
  rt.run([](Ctx& ctx) {
    RootFrame frame(ctx);
    Local slots = frame.local(ctx.alloc(2, 0));
    auto hammer = [slots](Ctx& c, std::uint32_t slot) {
      std::int64_t last = -1;
      for (int i = 0; i < kIters; ++i) {
        Object* fresh = c.alloc(0, 1);
        Ctx::init_i64(fresh, 0, i);
        c.write_ptr(slots.get(), slot, fresh);
        last = Ctx::read_i64_mut(Ctx::read_ptr(slots.get(), slot), 0);
        CHECK_EQ(last, i);
      }
      return last;
    };
    test::StealRendezvous steal;
    auto [l, r] = HierRuntime::fork2(
        ctx, {slots},
        [&](Ctx& c) {
          steal.await(c);
          return hammer(c, 0);
        },
        [&](Ctx& c) {
          steal.arrive();
          return hammer(c, 1);
        });
    CHECK_EQ(l, kIters - 1);
    CHECK_EQ(r, kIters - 1);
    CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(slots.get(), 0), 0), kIters - 1);
    CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(slots.get(), 1), 0), kIters - 1);
    return 0;
  });
  Stats s = rt.stats();
  CHECK(s.promotions >= 2u * kIters);
  CHECK(s.promoted_bytes >= s.promoted_objects * Object::kHeaderBytes);
}

PARMEM_TEST(promote_concurrent_coarse) {
  concurrent_promotion_scenario(PromotionMode::kCoarseLocking);
}

PARMEM_TEST(promote_concurrent_fine) {
  concurrent_promotion_scenario(PromotionMode::kFineGrained);
}

// A grandchild writes into a grandparent object a node whose field
// points into the parent's heap. The closure reaches a heap strictly
// between the target and the writer's leaf, so a coarse promotion must
// take the whole path's locks (one escalation); the fine-grained
// protocol never locks a path.
void intermediate_closure_scenario(PromotionMode mode) {
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.promotion = mode;
  HierRuntime rt(opts);
  rt.run([](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    HierRuntime::fork2(
        ctx, {box},
        [box](Ctx& c) {
          RootFrame f(c);
          Local mid = f.local(c.alloc(0, 1));
          Ctx::init_i64(mid.get(), 0, 42);
          CHECK_EQ(heap_of(mid.get())->depth(), 1u);
          HierRuntime::fork2(
              c, {box, mid},
              [box, mid](Ctx& g) {
                Object* node = g.alloc(1, 1);
                Ctx::init_i64(node, 0, 7);
                Ctx::init_ptr(node, 0, mid.get());
                CHECK_EQ(heap_of(node)->depth(), 2u);
                g.write_ptr(box.get(), 0, node);  // lifts node and mid
                Object* n = Object::chase(node);
                Object* m = Object::chase(mid.get());
                CHECK_EQ(heap_of(n)->depth(), 0u);
                CHECK_EQ(heap_of(m)->depth(), 0u);
                CHECK(Object::chase(Ctx::read_ptr(n, 0)) == m);
                return std::int64_t{0};
              },
              [](Ctx&) { return std::int64_t{0}; });
          // The parent's stale reference reaches the same master.
          Object* m = Object::chase(mid.get());
          CHECK_EQ(heap_of(m)->depth(), 0u);
          CHECK(Object::chase(Ctx::read_ptr(Ctx::read_ptr(box.get(), 0), 0)) ==
                m);
          Ctx::write_i64(mid.get(), 0, 43);
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    Object* node = Ctx::read_ptr(box.get(), 0);
    CHECK_EQ(Ctx::read_i64_mut(node, 0), 7);
    CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(node, 0), 0), 43);
    return 0;
  });
  Stats s = rt.stats();
  CHECK_EQ(s.promotions, 1u);
  CHECK_EQ(s.promoted_objects, 2u);
  CHECK_EQ(s.promo_escalations,
           mode == PromotionMode::kCoarseLocking ? 1u : 0u);
}

PARMEM_TEST(promote_intermediate_heap_coarse) {
  intermediate_closure_scenario(PromotionMode::kCoarseLocking);
}

PARMEM_TEST(promote_intermediate_heap_fine) {
  intermediate_closure_scenario(PromotionMode::kFineGrained);
}

// Two cousins race to lift the same intermediate objects into
// different heaps. The tree is root (depth 0, `top`) -> c1 (depth 1,
// `midbox`) -> c2 (depth 2, the `mids` objects) -> {A, B} (depth 3).
// In round i, A stores a fresh node pointing at mids[i] into top[i]
// and B one into midbox[i]; both closures reach depth 2, strictly
// between their targets and leaves. A promotion that locked only its
// target heap would let A (holding depth 0) and B (holding depth 1)
// copy mids[i] at once, leaving two masters. B is forced onto the other
// worker (unstolen, it would run in c2's heap, at depth 2), and the two
// branches step through the rounds in lockstep, so the promotions
// overlap; if one branch waits too long (a collection is stopping the
// world) both fall back to running freely.
void intermediate_race_scenario(PromotionMode mode) {
  constexpr std::uint32_t kObjs = 4000;
  constexpr int kSpinLimit = 1 << 18;
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.promotion = mode;
  HierRuntime rt(opts);
  std::atomic<std::int64_t> arrived[2] = {-1, -1};
  std::atomic<bool> lockstep{true};
  auto rendezvous = [&arrived, &lockstep](int side, std::int64_t round) {
    arrived[side].store(round, std::memory_order_release);
    for (int spin = 0; lockstep.load(std::memory_order_relaxed) &&
                       arrived[1 - side].load(std::memory_order_acquire) <
                           round;
         ++spin) {
      if (spin == kSpinLimit) {
        lockstep.store(false, std::memory_order_relaxed);
      }
      cpu_relax();
    }
  };
  // One cousin's rounds: link a fresh node to mids[i] from target[i].
  auto race = [&rendezvous](Ctx& c, int side, const Local& target,
                            const Local& mids, std::uint32_t max_depth) {
    for (std::uint32_t i = 0; i < kObjs; ++i) {
      rendezvous(side, i);
      Object* node = c.alloc(1, 1);
      Ctx::init_i64(node, 0, side);
      Ctx::init_ptr(node, 0, Ctx::read_ptr(mids.get(), i));
      CHECK_EQ(heap_of(node)->depth(), 3u);
      c.write_ptr(target.get(), i, node);
      Object* m = Object::chase(Ctx::read_ptr(mids.get(), i));
      CHECK(heap_of(m)->depth() <= max_depth);
    }
    rendezvous(side, kObjs);
    return std::int64_t{0};
  };
  test::StealRendezvous steal;
  rt.run([&race, &steal](Ctx& ctx) {
    RootFrame frame(ctx);
    Local top = frame.local(ctx.alloc(kObjs, 0));
    HierRuntime::fork2(
        ctx, {top},
        [&race, &steal, top](Ctx& c1) {
          RootFrame f1(c1);
          Local midbox = f1.local(c1.alloc(kObjs, 0));
          HierRuntime::fork2(
              c1, {top, midbox},
              [&race, &steal, top, midbox](Ctx& c2) {
                RootFrame f2(c2);
                Local mids = f2.local(c2.alloc(kObjs, 0));
                for (std::uint32_t i = 0; i < kObjs; ++i) {
                  Object* m = c2.alloc(0, 1);
                  Ctx::init_i64(m, 0, i);
                  c2.write_ptr(mids.get(), i, m);
                }
                CHECK_EQ(heap_of(mids.get())->depth(), 2u);
                HierRuntime::fork2(
                    c2, {top, midbox, mids},
                    [&race, &steal, top, mids](Ctx& a) {
                      steal.await(a);
                      return race(a, 0, top, mids, 0);
                    },
                    [&race, &steal, midbox, mids](Ctx& b) {
                      steal.arrive();
                      return race(b, 1, midbox, mids, 1);
                    });
                // One master per object, reached from every copy.
                for (std::uint32_t i = 0; i < kObjs; ++i) {
                  Object* m = Object::chase(Ctx::read_ptr(mids.get(), i));
                  CHECK_EQ(heap_of(m)->depth(), 0u);
                  CHECK_EQ(Ctx::read_i64_mut(m, 0), i);
                  Object* from_top = Ctx::read_ptr(top.get(), i);
                  Object* from_mid = Ctx::read_ptr(midbox.get(), i);
                  CHECK(Object::chase(Ctx::read_ptr(from_top, 0)) == m);
                  CHECK(Object::chase(Ctx::read_ptr(from_mid, 0)) == m);
                }
                return std::int64_t{0};
              },
              [](Ctx&) { return std::int64_t{0}; });
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    return 0;
  });
  // Each node is copied once; each mids object once, or twice when B
  // lifted it to depth 1 before A lifted it on to depth 0. A always
  // escalates (mids[i] is below depth 0 until A lifts it); B does
  // unless A got there first.
  Stats s = rt.stats();
  CHECK_EQ(s.promotions, 2u * kObjs);
  CHECK(s.promoted_objects >= 3u * kObjs);
  CHECK(s.promoted_objects <= 4u * kObjs);
  if (mode == PromotionMode::kCoarseLocking) {
    CHECK(s.promo_escalations >= kObjs);
    CHECK(s.promo_escalations <= 2u * kObjs);
  } else {
    CHECK_EQ(s.promo_escalations, 0u);
  }
}

PARMEM_TEST(promote_intermediate_race_coarse) {
  intermediate_race_scenario(PromotionMode::kCoarseLocking);
}

PARMEM_TEST(promote_intermediate_race_fine) {
  intermediate_race_scenario(PromotionMode::kFineGrained);
}

}  // namespace
}  // namespace parmem
