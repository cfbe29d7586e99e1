// fork2: result plumbing, determinism across repeated parallel runs,
// nesting depth, exception propagation, the join-time heap merge that
// keeps child-allocated objects alive at stable addresses, and the
// rooted result channel that keeps raw Object* returns valid across
// collections inside the join window.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/hier_runtime.hpp"
#include "runtimes/localheap_runtime.hpp"
#include "tests/test_util.hpp"

namespace parmem {
namespace {

using Ctx = HierRuntime::Ctx;

std::int64_t fib(Ctx& c, int n) {
  if (n < 2) {
    return n;
  }
  auto [a, b] = HierRuntime::fork2(
      c, {}, [n](Ctx& cc) { return fib(cc, n - 1); },
      [n](Ctx& cc) { return fib(cc, n - 2); });
  return a + b;
}

PARMEM_TEST(fork2_deterministic_results) {
  HierRuntime::Options opts;
  opts.workers = 4;
  HierRuntime rt(opts);
  for (int round = 0; round < 3; ++round) {
    std::int64_t r = rt.run([](Ctx& ctx) { return fib(ctx, 18); });
    CHECK_EQ(r, 2584);
  }
  CHECK(rt.stats().forks > 0);
}

PARMEM_TEST(fork2_heterogeneous_results) {
  HierRuntime rt;
  auto out = rt.run([](Ctx& ctx) {
    auto [a, b] = HierRuntime::fork2(
        ctx, {}, [](Ctx&) { return 3.5; },
        [](Ctx&) { return std::int64_t{7}; });
    return static_cast<double>(b) + a;
  });
  CHECK(out == 10.5);
}

PARMEM_TEST(fork2_merge_keeps_child_objects) {
  HierRuntime::Options opts;
  opts.workers = 2;
  HierRuntime rt(opts);
  rt.run([](Ctx& ctx) {
    RootFrame frame(ctx);
    constexpr int kN = 1000;
    // Each branch builds a list in its own leaf and returns the raw
    // head pointer; the join merges chunks so addresses stay valid.
    auto build = [](Ctx& c, std::int64_t tag) {
      RootFrame f(c);
      Local head = f.local(nullptr);
      for (int i = 0; i < kN; ++i) {
        Object* node = c.alloc(1, 1);
        Ctx::init_i64(node, 0, tag + i);
        node->set_ptr_relaxed(0, head.get());
        head.set(node);
      }
      return head.get();
    };
    auto [left, right] = HierRuntime::fork2(
        ctx, {}, [&build](Ctx& c) { return build(c, 1000000); },
        [&build](Ctx& c) { return build(c, 2000000); });

    Local lroot = frame.local(left);
    Local rroot = frame.local(right);
    CHECK_EQ(heap_of(lroot.get())->depth(), 0u);  // merged into the parent
    CHECK_EQ(heap_of(rroot.get())->depth(), 0u);

    auto check_list = [](Object* head, std::int64_t tag) {
      std::int64_t expect = tag + kN - 1;
      for (Object* p = head; p != nullptr; p = Ctx::read_ptr(p, 0)) {
        CHECK_EQ(Ctx::read_i64_imm(p, 0), expect);
        --expect;
      }
      CHECK_EQ(expect, tag - 1);
    };
    check_list(lroot.get(), 1000000);
    check_list(rroot.get(), 2000000);

    // Survives a forced parent collection too (roots relocate).
    ctx.collect_now();
    check_list(lroot.get(), 1000000);
    check_list(rroot.get(), 2000000);
    CHECK_EQ(ctx.runtime().stats().promotions, 0u);  // merge, not promotion
    return 0;
  });
}

PARMEM_TEST(fork2_nested_depth) {
  HierRuntime::Options opts;
  opts.workers = 2;
  HierRuntime rt(opts);
  std::int64_t r = rt.run([](Ctx& ctx) {
    // 2^6 leaves each allocating: exercises heap split/merge 63 times.
    struct Rec {
      static std::int64_t go(Ctx& c, int depth) {
        if (depth == 0) {
          RootFrame f(c);
          Local o = f.local(c.alloc(0, 1));
          Ctx::init_i64(o.get(), 0, 1);
          return Ctx::read_i64_mut(o.get(), 0);
        }
        auto [a, b] = HierRuntime::fork2(
            c, {}, [depth](Ctx& cc) { return Rec::go(cc, depth - 1); },
            [depth](Ctx& cc) { return Rec::go(cc, depth - 1); });
        return a + b;
      }
    };
    return Rec::go(ctx, 6);
  });
  CHECK_EQ(r, 64);
}

// At one worker nothing is stolen: the left branch runs in a fresh
// child of the forker's heap, and the right branch runs on the forker's
// own context, in the forker's heap, after the left heap was merged.
PARMEM_TEST(fork2_unstolen_right_runs_in_forker_heap) {
  HierRuntime::Options opts;
  opts.workers = 1;
  HierRuntime rt(opts);
  rt.run([](Ctx& ctx) {
    Heap* forker = ctx.leaf_heap();
    HierRuntime::fork2(
        ctx, {},
        [forker](Ctx& c) {
          CHECK(c.leaf_heap() != forker);
          CHECK(c.leaf_heap()->parent() == forker);
          CHECK_EQ(c.leaf_heap()->depth(), forker->depth() + 1);
          return 0;
        },
        [&ctx, forker](Ctx& c) {
          CHECK(&c == &ctx);
          CHECK(c.leaf_heap() == forker);
          return 0;
        });
    return 0;
  });
}

// A stolen right branch gets a depth + 1 heap of its own, built on the
// thief, and its context registers there: snapshot_heaps() (populated
// under GC-stress) sees it while the branch runs.
PARMEM_TEST(fork2_stolen_right_gets_own_heap) {
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.gc_stress = true;
  HierRuntime rt(opts);
  rt.run([&rt](Ctx& ctx) {
    Heap* forker = ctx.leaf_heap();
    const std::thread::id forker_thread = std::this_thread::get_id();
    test::StealRendezvous steal;
    auto [left_heap, right_heap] = HierRuntime::fork2(
        ctx, {},
        [&steal](Ctx& c) {
          steal.await(c);
          return c.leaf_heap();
        },
        [&](Ctx& c) {
          steal.arrive();
          CHECK(std::this_thread::get_id() != forker_thread);
          Heap* h = c.leaf_heap();
          CHECK(h != forker);
          CHECK(h->parent() == forker);
          CHECK_EQ(h->depth(), forker->depth() + 1);
          std::vector<Heap*> heaps = rt.snapshot_heaps();
          CHECK(std::find(heaps.begin(), heaps.end(), h) != heaps.end());
          return h;
        });
    CHECK(left_heap != right_heap);
    return 0;
  });
}

// The left branch returns an object pointing up into the parent heap,
// and the right branch, run inline in the parent heap, collects it.
// The left heap was merged first, so the collection rewrites that
// up-pointer to the relocated parent object; collected before the
// merge, the pointer would be left dangling into from-space.
PARMEM_TEST(fork2_inline_right_collects_merged_left_heap) {
  HierRuntime::Options opts;
  opts.workers = 1;
  HierRuntime rt(opts);
  rt.run([](Ctx& ctx) {
    RootFrame frame(ctx);
    Local target = frame.local(ctx.alloc(0, 1));
    Ctx::init_i64(target.get(), 0, 42);
    const Object* before = target.get();
    auto [up, r] = HierRuntime::fork2(
        ctx, {target},
        [target](Ctx& c) {
          Object* o = c.alloc(1, 0);
          Ctx::init_ptr(o, 0, target.get());
          return o;
        },
        [](Ctx& c) {
          c.collect_now();
          return 0;
        });
    (void)r;
    CHECK(target.get() != before);  // the collection moved it
    CHECK(Ctx::read_ptr(up, 0) == target.get());
    CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(up, 0), 0), 42);
    return 0;
  });
}

// A left branch that throws while the right branch is still unstolen:
// the right branch never runs, and the left heap's garbage, merged into
// the parent, is reclaimed by the parent's next collection.
PARMEM_TEST(fork2_left_throw_skips_unstolen_right) {
  HierRuntime::Options opts;
  opts.workers = 1;
  HierRuntime rt(opts);
  rt.run([&rt](Ctx& ctx) {
    const std::size_t before = rt.live_bytes();
    bool right_ran = false;
    bool caught = false;
    try {
      HierRuntime::fork2(
          ctx, {},
          [](Ctx& c) -> int {
            for (int i = 0; i < 1000; ++i) {
              Ctx::init_i64(c.alloc(0, 2), 0, i);
            }
            throw std::runtime_error("left");
          },
          [&right_ran](Ctx&) {
            right_ran = true;
            return 0;
          });
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "left";
    }
    CHECK(caught);
    CHECK(!right_ran);
    ctx.collect_now();
    CHECK_EQ(rt.live_bytes(), before);
    return 0;
  });
}

PARMEM_TEST(fork2_void_branches) {
  HierRuntime::Options opts;
  opts.workers = 2;
  HierRuntime rt(opts);
  rt.run([](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(2, 0));
    auto [a, b] = HierRuntime::fork2(
        ctx, {box},
        [box](Ctx& c) {  // effect-only branch: no return value needed
          Object* cell = c.alloc(0, 1);
          Ctx::init_i64(cell, 0, 17);
          c.write_ptr(box.get(), 0, cell);
        },
        [box](Ctx& c) { return Ctx::read_i64_imm(box.get(), 1); });
    static_assert(std::is_same_v<decltype(a), std::monostate>);
    CHECK_EQ(b, 0);
    CHECK_EQ(Ctx::read_i64_mut(Ctx::read_ptr(box.get(), 0), 0), 17);
    return 0;
  });
}

// Regression: a branch result carried as a raw Object* used to sit in
// an unregistered stack slot from branch completion until the parent
// consumed it after the join. Any collection in that window (here the
// GC-stress join cycle) relocates the object and leaves the return
// value stale. fork2's ResultChannel roots the returns, so they are
// rewritten like every other root: each branch publishes its object
// into a parent Local AND returns it raw, and after the join (which
// collected and moved everything under stress) the returned pointer
// must still be the IDENTICAL root the Local tracked.
PARMEM_TEST(fork2_raw_return_rooted_across_join_collection) {
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.gc_stress = true;  // forces a stopped-world collection per join
  HierRuntime rt(opts);
  rt.run([](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box_a = frame.local(nullptr);
    Local box_b = frame.local(nullptr);
    auto make = [](Ctx& c, const Local& box, std::int64_t tag) {
      Object* o = c.alloc(0, 1);
      Ctx::init_i64(o, 0, tag);
      box.set(c.publish(o));
      return o;
    };
    auto [a, b] = HierRuntime::fork2(
        ctx, {box_a, box_b},
        [&](Ctx& c) { return make(c, box_a, 41); },
        [&](Ctx& c) { return make(c, box_b, 43); });
    // The stress join collection moved both objects; the Locals were
    // rewritten by root scanning, and the returns must match them.
    CHECK(a == box_a.get());
    CHECK(b == box_b.get());
    CHECK_EQ(Ctx::read_i64_imm(a, 0), 41);
    CHECK_EQ(Ctx::read_i64_imm(b, 0), 43);
    return 0;
  });
  CHECK(rt.stats().gc_count > 0);
}

// Same hole under the local-heap runtime, where the window contains
// stopped-world GLOBAL collections: the left branch returns its
// (promoted) result raw, then the right branch churns enough
// allocation that GC-stress safepoints collect the global heap and
// move the master before the parent consumes the return.
PARMEM_TEST(fork2_raw_return_rooted_across_global_collection) {
  using LCtx = LhRuntime::Ctx;
  LhRuntime::Options opts;
  opts.workers = 2;
  opts.gc_stress = true;
  LhRuntime rt(opts);
  rt.run([](LCtx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(nullptr);
    auto [a, b] = LhRuntime::fork2(
        ctx, {box},
        [&box](LCtx& c) {
          Object* o = c.alloc(0, 1);
          LCtx::init_i64(o, 0, 59);
          box.set(c.publish(o));  // also promotes: depth-0 master
          return o;
        },
        [](LCtx& c) {
          RootFrame f(c);
          Local junk = f.local(nullptr);
          for (int i = 0; i < 4000; ++i) {  // several chunk refills ->
            junk.set(c.alloc(1, 2));        // stressed global cycles
          }
          return 0;
        });
    (void)b;
    CHECK_EQ(heap_of(a)->depth(), 0u);  // the channel published it
    CHECK(a == box.get());
    CHECK_EQ(LCtx::read_i64_imm(a, 0), 59);
    return 0;
  });
  CHECK(rt.stats().global_gc_count > 0);
}

PARMEM_TEST(fork2_propagates_exceptions) {
  HierRuntime::Options opts;
  opts.workers = 2;
  HierRuntime rt(opts);
  bool caught = false;
  try {
    rt.run([](Ctx& ctx) {
      auto [a, b] = HierRuntime::fork2(
          ctx, {}, [](Ctx&) { return 1; },
          [](Ctx&) -> int { throw std::runtime_error("branch b"); });
      return a + b;
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    CHECK(std::string(e.what()) == "branch b");
  }
  CHECK(caught);
  // The runtime is still usable afterwards.
  CHECK_EQ(rt.run([](Ctx& ctx) { return fib(ctx, 10); }), 55);
}

}  // namespace
}  // namespace parmem
