// Google-benchmark microbenchmarks of the individual runtime
// operations: allocation, the read/write fast paths, the mutable-access
// barrier on promoted objects, and fork2 overhead. Complements
// fig08_op_costs with statistically managed timing.
#include <benchmark/benchmark.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "core/deque.hpp"
#include "core/hier_runtime.hpp"
#include "core/sched.hpp"

namespace parmem {
namespace {

using Ctx = HierRuntime::Ctx;

void BM_Alloc2Fields(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(ctx.alloc(0, 2));
    }
    return 0;
  });
}
BENCHMARK(BM_Alloc2Fields);

void BM_ReadImmutable(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local o = frame.local(ctx.alloc(0, 2));
    Ctx::init_i64(o.get(), 0, 42);
    for (auto _ : state) {
      benchmark::DoNotOptimize(Ctx::read_i64_imm(o.get(), 0));
    }
    return 0;
  });
}
BENCHMARK(BM_ReadImmutable);

void BM_ReadMutableLocal(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local o = frame.local(ctx.alloc(0, 2));
    ctx.write_i64(o.get(), 0, 42);
    for (auto _ : state) {
      benchmark::DoNotOptimize(ctx.read_i64_mut(o.get(), 0));
    }
    return 0;
  });
}
BENCHMARK(BM_ReadMutableLocal);

void BM_WriteNonptrLocal(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local o = frame.local(ctx.alloc(0, 2));
    std::int64_t i = 0;
    for (auto _ : state) {
      ctx.write_i64(o.get(), 0, ++i);
    }
    return 0;
  });
}
BENCHMARK(BM_WriteNonptrLocal);

void BM_WritePtrLocalFastPath(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local o = frame.local(ctx.alloc(1, 0));
    Local p = frame.local(ctx.alloc(0, 1));
    for (auto _ : state) {
      ctx.write_ptr(o.get(), 0, p.get());
    }
    return 0;
  });
}
BENCHMARK(BM_WritePtrLocalFastPath);

void BM_ReadMutablePromoted(benchmark::State& state) {
  HierRuntime rt({.workers = 2});
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    HierRuntime::fork2(
        ctx, {box},
        [&state, box](Ctx& c) {
          RootFrame f(c);
          Local cell = f.local(c.alloc(0, 1));
          Ctx::init_i64(cell.get(), 0, 5);
          Object* stale = cell.get();
          c.write_ptr(box.get(), 0, cell.get());  // promote; keep stale
          Local sref = f.local(stale);
          for (auto _ : state) {
            benchmark::DoNotOptimize(c.read_i64_mut(sref.get(), 0));
          }
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    return 0;
  });
}
BENCHMARK(BM_ReadMutablePromoted);

void fork2_scalar_loop(benchmark::State& state, HierRuntime& rt) {
  rt.run([&state](Ctx& ctx) {
    for (auto _ : state) {
      auto [a, b] = HierRuntime::fork2(
          ctx, {}, [](Ctx&) { return std::int64_t{1}; },
          [](Ctx&) { return std::int64_t{2}; });
      benchmark::DoNotOptimize(a + b);
    }
    return 0;
  });
}

// One worker per hardware thread: an idle worker that is spinning
// rather than parked steals the trivial right branch, so this row
// swings between fork2's own cost and a cross-core steal round trip
// from one runtime instance to the next.
void BM_Fork2ScalarOverhead(benchmark::State& state) {
  HierRuntime rt;
  fork2_scalar_loop(state, rt);
}
BENCHMARK(BM_Fork2ScalarOverhead);

// One worker: nothing is stolen, so this is fork2's own cost.
void BM_Fork2ScalarOverheadOneWorker(benchmark::State& state) {
  HierRuntime rt({.workers = 1});
  fork2_scalar_loop(state, rt);
}
BENCHMARK(BM_Fork2ScalarOverheadOneWorker);

void BM_PromoteSmallObject(benchmark::State& state) {
  HierRuntime rt;
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    HierRuntime::fork2(
        ctx, {box},
        [&state, box](Ctx& c) {
          for (auto _ : state) {
            Object* fresh = c.alloc(0, 1);
            Ctx::init_i64(fresh, 0, 1);
            c.write_ptr(box.get(), 0, fresh);  // promotes one object
          }
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    return 0;
  });
}
BENCHMARK(BM_PromoteSmallObject);

// --- scheduler rows --------------------------------------------------------
// fork2_throughput is the tentpole metric of the lock-free scheduler:
// forks/second through full binary fork trees with a second worker
// present. That second worker is the point: an idle thief must cost
// the fork-executing owner NOTHING. Under the old mutex deques the
// idle worker's poll loop took the owner's deque lock on every sweep
// and roughly halved throughput on a small box; with Chase-Lev the
// owner's push+pop never blocks and the parked thief never touches
// the owner's line. steal_latency measures the push ->
// executed-on-another-worker round trip. The two deque rows isolate
// the raw deque cycle, with the old mutex+vector deque kept as an
// in-tree replica so the before/after never goes stale.

std::int64_t fork_tree_count(Ctx& ctx, int depth) {
  if (depth == 0) {
    return 1;
  }
  auto [a, b] = HierRuntime::fork2(
      ctx, {}, [&](Ctx& c) { return fork_tree_count(c, depth - 1); },
      [&](Ctx& c) { return fork_tree_count(c, depth - 1); });
  return a + b;
}

void BM_Fork2Throughput(benchmark::State& state) {
  constexpr int kDepth = 8;  // 255 forks per iteration
  HierRuntime rt({.workers = 2});
  rt.run([&state](Ctx& ctx) {
    std::int64_t leaves = 0;
    for (auto _ : state) {
      leaves += fork_tree_count(ctx, kDepth);
    }
    benchmark::DoNotOptimize(leaves);
    return 0;
  });
  state.SetItemsProcessed(state.iterations() * ((1 << kDepth) - 1));
}
BENCHMARK(BM_Fork2Throughput);

struct PingTask : WorkStealPool::Task {
  std::atomic<bool> done{false};
  void execute() override { done.store(true, std::memory_order_release); }
};

void BM_StealLatency(benchmark::State& state) {
  WorkStealPool pool(2);
  WorkStealPool::Scope scope(&pool);
  for (auto _ : state) {
    PingTask t;
    pool.push(&t);
    // Wait without helping: the task completes only when the other
    // worker steals it, so the measured interval is push -> stolen ->
    // executed. The yield matters on boxes with fewer cores than
    // workers -- without it the waiter burns its whole quantum before
    // the thief can run at all.
    while (!t.done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}
BENCHMARK(BM_StealLatency);

void BM_DequePushPop(benchmark::State& state) {
  ChaseLevDeque<PingTask> dq;
  PingTask t;
  for (auto _ : state) {
    dq.push(&t);
    benchmark::DoNotOptimize(dq.pop());
  }
}
BENCHMARK(BM_DequePushPop);

// Replica of the pre-Chase-Lev mutex deque, kept so every recording
// carries its own before/after of the uncontended fork cycle.
struct MutexDeque {
  std::mutex mu;
  std::vector<PingTask*> tasks;
};

void BM_MutexDequePushPop(benchmark::State& state) {
  MutexDeque dq;
  PingTask t;
  for (auto _ : state) {
    {
      std::lock_guard<std::mutex> g(dq.mu);
      dq.tasks.push_back(&t);
    }
    PingTask* p = nullptr;
    {
      std::lock_guard<std::mutex> g(dq.mu);
      if (!dq.tasks.empty() && dq.tasks.back() == &t) {
        dq.tasks.pop_back();
        p = &t;
      }
    }
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_MutexDequePushPop);

// --- fine-grained promotion mode (Section 5 future work) -------------------
// The per-op costs of the claim-based mode, for comparison with the
// coarse rows above: the local fast paths are identical instructions,
// the promotion swaps path locks for one CAS + a spinlocked bump.

HierRuntime::Options fine_opts(unsigned workers = 1) {
  HierRuntime::Options o;
  o.workers = workers;
  o.promotion = PromotionMode::kFineGrained;
  return o;
}

void BM_WriteNonptrLocalFine(benchmark::State& state) {
  HierRuntime rt(fine_opts());
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local o = frame.local(ctx.alloc(0, 2));
    std::int64_t i = 0;
    for (auto _ : state) {
      ctx.write_i64(o.get(), 0, ++i);
    }
    return 0;
  });
}
BENCHMARK(BM_WriteNonptrLocalFine);

void BM_ReadMutablePromotedFine(benchmark::State& state) {
  HierRuntime rt(fine_opts(2));
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    HierRuntime::fork2(
        ctx, {box},
        [&state, box](Ctx& c) {
          RootFrame f(c);
          Local cell = f.local(c.alloc(0, 1));
          Ctx::init_i64(cell.get(), 0, 5);
          Object* stale = cell.get();
          c.write_ptr(box.get(), 0, cell.get());
          Local sref = f.local(stale);
          for (auto _ : state) {
            benchmark::DoNotOptimize(c.read_i64_mut(sref.get(), 0));
          }
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    return 0;
  });
}
BENCHMARK(BM_ReadMutablePromotedFine);

void BM_PromoteSmallObjectFine(benchmark::State& state) {
  HierRuntime rt(fine_opts());
  rt.run([&state](Ctx& ctx) {
    RootFrame frame(ctx);
    Local box = frame.local(ctx.alloc(1, 0));
    HierRuntime::fork2(
        ctx, {box},
        [&state, box](Ctx& c) {
          for (auto _ : state) {
            Object* fresh = c.alloc(0, 1);
            Ctx::init_i64(fresh, 0, 1);
            c.write_ptr(box.get(), 0, fresh);
          }
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    return 0;
  });
}
BENCHMARK(BM_PromoteSmallObjectFine);

}  // namespace
}  // namespace parmem

BENCHMARK_MAIN();
