// Spoonhower-style parallel baseline ("mlton-spoonhower" in
// fig10-fig13): every task bump-allocates into its own buffer of one
// logically shared flat heap, there is no promotion and no read/write
// barrier, and collection is STOP-THE-WORLD:
//
//   the task that trips the shared budget stops the running set through
//   the shared SafepointGate (core/sched.hpp) -- every other RUNNING
//   task parks at a safepoint (its alloc slow path; tasks between alloc
//   and join are deactivated and need not park) -- merges all
//   allocation buffers into one heap, and evacuates it. With workers > 1
//   the evacuation itself is parallel: the parked mutators are recruited
//   as a core/gc_parallel.hpp team, so the pause puts every stopped
//   MUTATOR to work instead of idling it (pool workers with no task to
//   run stay asleep in the scheduler and are not recruited -- a serial
//   program phase still collects with a team of one). With one worker
//   it is the sequential collector from core/gc_leaf.hpp. Either way
//   the pause bills gc_ns for ALL stopped workers, matching the paper's
//   "GC percentage" columns.
//
// The fast paths are as cheap as the sequential runtime's (that is the
// point of this baseline), and the fork path is lock-free too: the
// gate's running-set entry/exit and the per-worker context registry
// (CtxRegistry) take no shared lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <string>
#include <utility>

#include "core/failpoint.hpp"
#include "core/gc_leaf.hpp"
#include "core/gc_parallel.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/roots.hpp"
#include "core/sched.hpp"
#include "core/stats.hpp"
#include "core/stats_json.hpp"
#include "core/trace.hpp"
#include "runtimes/runtime_api.hpp"

namespace parmem {

class StwRuntime {
 public:
  static constexpr const char* kName = "stw";

  struct Options {
    unsigned workers = 0;  // 0 = one per hardware thread
    std::size_t gc_min_budget = std::size_t{32} << 20;  // shared-heap bytes
    double gc_growth_factor = 8.0;
    // Hard cap on pool bytes; 0 = PARMEM_HEAP_BUDGET, else unlimited.
    // Exceeding it forces a full stop-the-world collection and one
    // retry before parmem::OutOfMemory reaches the program.
    std::size_t heap_budget_bytes = 0;
    std::string failpoints;  // e.g. "chunk_alloc=fail@3"; "" = none
    // Append one JSON line of counters + pause-histogram summaries to
    // this file at runtime destruction; "" = PARMEM_STATS_JSON or none.
    std::string stats_json_path;
  };

  class Ctx {
   public:
    Ctx(const Ctx&) = delete;
    Ctx& operator=(const Ctx&) = delete;

    Object* alloc(std::uint32_t nptr, std::uint32_t nscalar) {
      std::size_t size = Object::size_bytes(nptr, nscalar);
      char* p = heap_.try_bump(size);
      if (__builtin_expect(p == nullptr, 0)) {
        return alloc_slow(nptr, nscalar);
      }
      Object* o = reinterpret_cast<Object*>(p);
      o->init_header(nptr, nscalar);
      o->zero_fields();
      return o;
    }

    static void init_i64(Object* o, std::uint32_t i, std::int64_t v) {
      o->set_scalar(i, v);
    }
    static void init_ptr(Object* o, std::uint32_t i, Object* v) {
      o->set_ptr_relaxed(i, v);
    }

    // Flat shared heap, mutators stopped during collection: no
    // forwarding can be observed by running code, so every barrier is a
    // plain access -- identical costs to the sequential baseline.
    static std::int64_t read_i64_imm(const Object* o, std::uint32_t i) {
      return o->scalar(i);
    }
    static std::int64_t read_i64_mut(Object* o, std::uint32_t i) {
      return o->scalar(i);
    }
    static void write_i64(Object* o, std::uint32_t i, std::int64_t v) {
      o->set_scalar(i, v);
    }
    static Object* read_ptr(Object* o, std::uint32_t i) {
      return o->ptr(i);
    }
    void write_ptr(Object* o, std::uint32_t idx, Object* v) {
      o->set_ptr(idx, v);
    }

    Object* publish(Object* v) { return v; }

    // Safepoint: park through a pending collection.
    void poll() {
      if (rt_->gate_.pending()) {
        rt_->gate_.park();
      }
    }
    void collect_now() { rt_->collect(this, /*force=*/true); }

    StwRuntime& runtime() { return *rt_; }
    RootFrame** root_head_ref() { return &frames_; }

    // SpawnedBranch hooks: a branch joins the running set for exactly
    // the span of its execution (entry blocks while a collection is
    // pending; exit wakes a collector waiting on the running count).
    void branch_enter() { rt_->gate_.activate(rt_->pool_.current_index()); }
    void branch_exit() { rt_->gate_.deactivate(rt_->pool_.current_index()); }

   private:
    friend class StwRuntime;
    friend class CtxRegistry<Ctx>;

    explicit Ctx(StwRuntime* rt) : rt_(rt), heap_(nullptr, 0, &rt->chunks_) {
      rt_->registry_.add(this, rt_->pool_.current_index());
    }
    ~Ctx() { rt_->registry_.remove(this); }

    Object* alloc_slow(std::uint32_t nptr, std::uint32_t nscalar) {
      poll();
      if (rt_->chunks_.live_bytes() >=
          rt_->gc_budget_.load(std::memory_order_relaxed)) {
        rt_->collect(this, /*force=*/false);
      }
      Object* o;
      try {
        o = heap_.bump_alloc(nptr, nscalar);
      } catch (const OutOfMemory&) {
        // Budget hit (or injected chunk fault): force a full
        // stop-the-world collection -- the biggest hammer this flat
        // heap has -- and retry exactly once. A failure of the
        // collection itself propagates from collect() instead of
        // looping back here.
        rt_->collect(this, /*force=*/true);
        rt_->stats_.local().emergency_gcs.fetch_add(1, std::memory_order_relaxed);
        o = heap_.bump_alloc(nptr, nscalar);
      }
      o->zero_fields();
      return o;
    }

    StwRuntime* rt_;
    Heap heap_;  // this task's allocation buffer of the shared heap
    RootFrame* frames_ = nullptr;
    CtxRegistry<Ctx>::Link reg_;
  };

  StwRuntime() : StwRuntime(Options{}) {}
  explicit StwRuntime(const Options& opts)
      : opts_(opts),
        gc_budget_(opts.gc_min_budget),
        pool_(opts.workers),
        gate_(pool_.workers()),
        registry_(pool_.workers()) {
    rtapi::init_runtime(chunks_, opts_);
  }
  StwRuntime(const StwRuntime&) = delete;
  StwRuntime& operator=(const StwRuntime&) = delete;

  ~StwRuntime() {
    stats_json::write(stats_json::resolve_path(opts_.stats_json_path), kName,
                      rtapi::snapshot_of(*this));
  }

  const Options& options() const { return opts_; }
  unsigned workers() const { return pool_.workers(); }
  Stats stats() const {
    return chunks_.with_chunk_counts(stats_.snapshot());
  }
  std::size_t peak_bytes() const { return chunks_.peak_bytes(); }
  std::size_t live_bytes() const { return chunks_.live_bytes(); }

  template <class F>
  auto run(F&& f) {
    WorkStealPool::Scope scope(&pool_);
    Ctx ctx(this);
    ActiveScope act(&gate_, pool_.current_index());
    return f(ctx);
  }

  template <class F, class G>
  static auto fork2(Ctx& ctx, std::initializer_list<Local> roots, F&& f,
                    G&& g) {
    (void)roots;
    using RA = rtapi::BranchResult<F, Ctx>;
    using RB = rtapi::BranchResult<G, Ctx>;

    StwRuntime* rt = ctx.rt_;
    rt->stats_.local().forks.fetch_add(1, std::memory_order_relaxed);

    Ctx ctx_a(rt);
    Ctx ctx_b(rt);

    // Both result channels push a Local onto the PARENT's frame chain
    // (a plain-pointer list the collector walks), so they must be
    // constructed while the parent is still in the running set -- a
    // push after deactivating could race a collector already scanning
    // the chain. Spawning before deactivating is fine: the parent
    // never blocks until the join below.
    rtapi::ResultChannel<Ctx, RA> ch_a(ctx);
    rtapi::SpawnedBranch<Ctx, std::remove_reference_t<G>> task_b(
        &rt->pool_, g, ctx_b, ctx);

    // The parent now leaves the running set: a pending collection must
    // never wait on a task that is blocked in fork2 rather than parked
    // at a safepoint. Its frames stay registered (and scanned) through
    // its Ctx for the whole join.
    rt->gate_.deactivate(rt->pool_.current_index());

    std::exception_ptr err_a;
    ctx_a.branch_enter();
    try {
      ch_a.store(ctx_a, rtapi::invoke_branch(f, ctx_a));
    } catch (...) {
      err_a = std::current_exception();
    }
    ctx_a.branch_exit();
    task_b.join(err_a != nullptr);

    // Reactivating blocks while a collection is pending, so once we are
    // back the merges below cannot race it: a new collection cannot
    // reach the copying phase until this task parks or deactivates.
    rt->gate_.activate(rt->pool_.current_index());
    ctx.heap_.merge_from(ctx_a.heap_);
    ctx.heap_.merge_from(ctx_b.heap_);

    if (err_a) {
      std::rethrow_exception(err_a);
    }
    if (task_b.error()) {
      std::rethrow_exception(task_b.error());
    }
    return std::pair<RA, RB>(ch_a.take(), task_b.take_result());
  }

 private:
  void collect(Ctx* me, bool force) {
    StopScope stop(gate_);
    if (!stop) {
      // Someone else collected while we sat parked (possibly copying
      // for them); our alloc retries against the collected heap.
      return;
    }
    if (!force &&
        chunks_.live_bytes() < gc_budget_.load(std::memory_order_relaxed)) {
      return;  // lost a race with a finished collection; budget is fine
    }

    // The world is stopped. Fold every task's allocation buffer into
    // ours so the flat heap really is one heap, then evacuate it with
    // the union of all root frames.
    const std::uint64_t t0 = trace::now_ns();
    registry_.for_each([me](Ctx* c) {
      if (c != me) {
        me->heap_.merge_from(c->heap_);
      }
    });
    auto each_root = [&](auto&& fn) {
      registry_.for_each([&](Ctx* c) {
        for (RootFrame* f = c->frames_; f != nullptr; f = f->prev()) {
          f->for_each_slot(fn);
        }
      });
    };

    std::size_t live;
    if (pool_.workers() > 1) {
      // Team evacuation: the parked mutators ARE the team, each blocked
      // in the gate on its own worker thread.
      live = core::collect_with_parked_team(gate_, chunks_, &me->heap_,
                                            1 + gate_.parked(), each_root)
                 .totals.bytes_copied;
      const std::uint64_t wall = trace::now_ns() - t0;
      // The pause costs every worker the full wall time, team member
      // or not.
      record_collection(&stats_.local(), trace::Ev::kGcStw, t0, wall, live,
                        wall * pool_.workers());
    } else {
      live = leaf_gc_collect(&me->heap_, &stats_.local(), each_root);
    }

    auto scaled = static_cast<std::size_t>(static_cast<double>(live) *
                                           opts_.gc_growth_factor);
    gc_budget_.store(
        scaled > opts_.gc_min_budget ? scaled : opts_.gc_min_budget,
        std::memory_order_relaxed);
  }

  Options opts_;
  ChunkPool chunks_;
  ShardedStats stats_{WorkStealPool::resolved_workers(opts_.workers)};
  std::atomic<std::size_t> gc_budget_;

  WorkStealPool pool_;
  SafepointGate gate_;           // pause/resume of the running set
  CtxRegistry<Ctx> registry_;    // every live Ctx, for the collector
};

static_assert(RuntimeLike<StwRuntime>);

}  // namespace parmem
