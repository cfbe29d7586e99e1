// Spoonhower-style parallel baseline ("mlton-spoonhower" in
// fig10-fig13): every task bump-allocates into its own buffer of one
// logically shared flat heap, there is no promotion and no read/write
// barrier, and collection is STOP-THE-WORLD:
//
//   the task that trips the shared budget raises a GC request, waits
//   for every other RUNNING task to park at a safepoint (their alloc
//   slow path -- tasks between alloc and join are deactivated and need
//   not park), merges all allocation buffers into one heap, and
//   evacuates it. With workers > 1 the evacuation itself is parallel:
//   the parked mutators are recruited as a core/gc_parallel.hpp team,
//   so the pause puts every stopped MUTATOR to work instead of idling
//   it (pool workers with no task to run stay asleep in the scheduler
//   and are not recruited -- a serial program phase still collects
//   with a team of one). With one worker it is the sequential
//   collector from
//   core/gc_leaf.hpp. Either way the pause bills gc_ns for ALL stopped
//   workers, matching the paper's "GC percentage" columns.
//
// The fast paths are as cheap as the sequential runtime's (that is the
// point of this baseline), and since the fork-overhead fix the fork
// path is lock-free too: entering/leaving the running set is one
// atomic add on a per-worker active count plus one check of the
// pending-collection flag (both seq_cst, Dekker-paired with the
// collector's flag-store/count-read), and context registration is a
// per-worker intrusive list under a per-worker spinlock. The runtime
// mutex is only ever taken on collection paths.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/failpoint.hpp"
#include "core/gc_leaf.hpp"
#include "core/gc_parallel.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/phase.hpp"
#include "core/profiler.hpp"
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

    void poll() { rt_->safepoint(); }
    void collect_now() { rt_->collect(this, /*force=*/true); }

    StwRuntime& runtime() { return *rt_; }
    RootFrame** root_head_ref() { return &frames_; }

    // SpawnedBranch hooks: a branch joins the running set for exactly
    // the span of its execution (entry blocks while a collection is
    // pending; exit wakes a collector waiting on the running count).
    void branch_enter() { rt_->activate(); }
    void branch_exit() { rt_->deactivate(); }

   private:
    friend class StwRuntime;

    explicit Ctx(StwRuntime* rt)
        : rt_(rt), heap_(nullptr, 0, &rt->chunks_) {
      rt_->register_ctx(this);
    }
    ~Ctx() { rt_->deregister_ctx(this); }

    Object* alloc_slow(std::uint32_t nptr, std::uint32_t nscalar) {
      rt_->safepoint();
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
    Ctx* reg_prev_ = nullptr;  // intrusive per-worker registry links,
    Ctx* reg_next_ = nullptr;  // guarded by the home slot's ctx_lock
    unsigned home_slot_ = 0;
  };

  StwRuntime() : StwRuntime(Options{}) {}
  explicit StwRuntime(const Options& opts)
      : opts_(opts),
        gc_budget_(opts.gc_min_budget),
        pool_(opts.workers),
        slots_(pool_.workers()) {
    env::install_failpoints_env();
    trace::init_from_env();
    profiler::init_from_env();
    profiler::note_stack_hi();
    chunks_.set_budget(effective_heap_budget(opts_.heap_budget_bytes));
    if (!opts_.failpoints.empty()) {
      failpoint::install(opts_.failpoints);
    }
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
    ActiveScope act(this);
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
    // push after deactivate() could race a collector already scanning
    // the chain. Spawning before deactivating is fine: the parent
    // never blocks until the join below.
    rtapi::ResultChannel<Ctx, RA> ch_a(ctx);
    rtapi::SpawnedBranch<Ctx, std::remove_reference_t<G>> task_b(
        &rt->pool_, g, ctx_b, ctx);

    // The parent now leaves the running set: a pending collection must
    // never wait on a task that is blocked in fork2 rather than parked
    // at a safepoint. Its frames stay registered (and scanned) through
    // its Ctx for the whole join.
    rt->deactivate();

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
    rt->activate();
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
  // One cache line per pool worker: the running-set count for the
  // lock-free fork path, and the context registry for that worker's
  // thread (mutated only from it, so the spinlock is uncontended
  // except against a stopped-world collector scanning the lists).
  struct alignas(64) WorkerSlot {
    std::atomic<int> active{0};
    SpinLock ctx_lock;
    Ctx* ctx_head = nullptr;
  };

  struct ActiveScope {
    StwRuntime* rt;
    explicit ActiveScope(StwRuntime* r) : rt(r) { rt->activate(); }
    ~ActiveScope() { rt->deactivate(); }
    ActiveScope(const ActiveScope&) = delete;
    ActiveScope& operator=(const ActiveScope&) = delete;
  };

  void register_ctx(Ctx* c) {
    unsigned idx = pool_.current_index();
    WorkerSlot& s = slots_[idx];
    c->home_slot_ = idx;
    std::lock_guard<SpinLock> g(s.ctx_lock);
    c->reg_prev_ = nullptr;
    c->reg_next_ = s.ctx_head;
    if (s.ctx_head != nullptr) {
      s.ctx_head->reg_prev_ = c;
    }
    s.ctx_head = c;
  }
  void deregister_ctx(Ctx* c) {
    WorkerSlot& s = slots_[c->home_slot_];
    std::lock_guard<SpinLock> g(s.ctx_lock);
    if (c->reg_prev_ != nullptr) {
      c->reg_prev_->reg_next_ = c->reg_next_;
    } else {
      s.ctx_head = c->reg_next_;
    }
    if (c->reg_next_ != nullptr) {
      c->reg_next_->reg_prev_ = c->reg_prev_;
    }
  }

  // Running-set membership. The fast path is one atomic RMW on this
  // worker's own count plus a flag check; seq_cst pairs it with the
  // collector's flag-store-then-count-read (Dekker), so an activation
  // either observes the pending collection and backs off, or is
  // observed by the collector, which then waits for this task to park
  // or deactivate.
  void activate() {
    std::atomic<int>& cnt = slots_[pool_.current_index()].active;
    for (;;) {
      cnt.fetch_add(1, std::memory_order_seq_cst);
      if (__builtin_expect(!gc_flag_.load(std::memory_order_seq_cst), 1)) {
        return;
      }
      // A collection is pending: back out (waking its driver, which
      // may be waiting on the running count) and sit it out.
      phase::PhaseScope stall_scope(phase::Phase::kGateStall);
      const std::uint64_t t0 = trace::now_ns();
      std::unique_lock<std::mutex> lk(mu_);
      cnt.fetch_sub(1, std::memory_order_seq_cst);
      pause_cv_.notify_all();
      done_cv_.wait(lk, [&] { return !gc_pending_; });
      trace::record_gate_stall(t0, trace::now_ns() - t0);
    }
  }
  void deactivate() {
    slots_[pool_.current_index()].active.fetch_sub(1,
                                                   std::memory_order_seq_cst);
    if (__builtin_expect(gc_flag_.load(std::memory_order_seq_cst), 0)) {
      std::lock_guard<std::mutex> g(mu_);
      pause_cv_.notify_all();  // a collector may be waiting on the count
    }
  }

  unsigned running() const {
    long n = 0;
    for (const WorkerSlot& s : slots_) {
      n += s.active.load(std::memory_order_seq_cst);
    }
    return static_cast<unsigned>(n);
  }

  // Cheap polling check on the alloc slow path.
  void safepoint() {
    if (__builtin_expect(gc_flag_.load(std::memory_order_acquire), 0)) {
      park();
    }
  }
  void park() {
    std::unique_lock<std::mutex> lk(mu_);
    wait_out_collection(lk);
  }

  // Parked at a safepoint (or arriving second into collect): count
  // ourselves paused, serve as an evacuation-team worker if the driver
  // recruits us, and return once the collection is over.
  void wait_out_collection(std::unique_lock<std::mutex>& lk) {
    // The recorded stall spans the whole stopped window, including any
    // copy work done as a recruited team member (run_worker retags the
    // recruitment spans to parallel-evac for the profiler).
    phase::PhaseScope stall_scope(phase::Phase::kGateStall);
    const std::uint64_t t0 = trace::now_ns();
    ++paused_;
    pause_cv_.notify_all();
    while (gc_pending_) {
      if (gc_team_ != nullptr && gc_team_next_ < gc_team_slots_) {
        unsigned slot = gc_team_next_++;
        core::ParallelCollector* pc = gc_team_;
        lk.unlock();
        pc->run_worker(slot);
        lk.lock();
        continue;
      }
      done_cv_.wait(lk);
    }
    --paused_;
    trace::record_gate_stall(t0, trace::now_ns() - t0);
  }

  void collect(Ctx* me, bool force) {
    std::unique_lock<std::mutex> lk(mu_);
    if (gc_pending_) {
      // Someone else is collecting: park here (possibly copying for
      // them); our alloc retries against the collected heap afterwards.
      wait_out_collection(lk);
      return;
    }
    if (!force &&
        chunks_.live_bytes() < gc_budget_.load(std::memory_order_relaxed)) {
      return;  // lost a race with a finished collection; budget is fine
    }
    gc_pending_ = true;
    gc_flag_.store(true, std::memory_order_seq_cst);
    pause_cv_.wait(lk, [&] { return paused_ == running() - 1; });

    // The world is stopped. Fold every task's allocation buffer into
    // ours so the flat heap really is one heap, then evacuate it with
    // the union of all root frames.
    auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t trace_t0 = trace::now_ns();
    for (WorkerSlot& s : slots_) {
      std::lock_guard<SpinLock> g(s.ctx_lock);
      for (Ctx* c = s.ctx_head; c != nullptr; c = c->reg_next_) {
        if (c != me) {
          me->heap_.merge_from(c->heap_);
        }
      }
    }
    auto each_root = [&](auto&& fn) {
      for (WorkerSlot& s : slots_) {
        std::lock_guard<SpinLock> g(s.ctx_lock);
        for (Ctx* c = s.ctx_head; c != nullptr; c = c->reg_next_) {
          for (RootFrame* f = c->frames_; f != nullptr; f = f->prev()) {
            f->for_each_slot(fn);
          }
        }
      }
    };

    std::size_t live;
    if (pool_.workers() > 1) {
      // Team evacuation: the parked mutators ARE the team. Every
      // context counted in paused_ is blocked in wait_out_collection
      // on its own worker thread, so exactly 1 + paused_ threads are
      // available; notify hands each a team slot.
      const auto team = static_cast<unsigned>(1 + paused_);
      core::ParallelCollector pc(chunks_, std::vector<Heap*>{&me->heap_},
                                 core::ParallelGcOptions{team, 128});
      pc.prepare(each_root);
      gc_team_ = &pc;
      gc_team_slots_ = team;
      gc_team_next_ = 1;  // slot 0 is the driver's
      done_cv_.notify_all();
      lk.unlock();
      pc.run_worker(0);
      core::ParallelGcOutcome out;
      try {
        out = pc.finish();  // all recruits exited; rethrows a team abort
      } catch (...) {
        // The evacuation itself failed (true OS OOM in collector
        // context) -- fatal for the computation, but the stopped world
        // must still be released or every parked task deadlocks.
        lk.lock();
        gc_team_ = nullptr;
        gc_pending_ = false;
        gc_flag_.store(false, std::memory_order_seq_cst);
        done_cv_.notify_all();
        throw;
      }
      lk.lock();
      gc_team_ = nullptr;
      live = out.totals.bytes_copied;
      stats_.local().gc_count.fetch_add(1, std::memory_order_relaxed);
      stats_.local().gc_bytes_copied.fetch_add(live, std::memory_order_relaxed);
      auto wall = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      // The pause costs every worker the full wall time, team member
      // or not.
      stats_.local().gc_ns.fetch_add(wall * pool_.workers(),
                             std::memory_order_relaxed);
      // Team path bills gc_count directly (no leaf_gc_collect), so it
      // records its own pause event; the 1-worker branch below records
      // inside leaf_gc_collect instead.
      trace::record_gc_pause(trace::Ev::kGcStw, trace_t0, wall, live);
    } else {
      try {
        live = leaf_gc_collect(&me->heap_, &stats_.local(), each_root);
      } catch (...) {
        gc_pending_ = false;
        gc_flag_.store(false, std::memory_order_seq_cst);
        done_cv_.notify_all();
        throw;
      }
    }

    auto scaled = static_cast<std::size_t>(static_cast<double>(live) *
                                           opts_.gc_growth_factor);
    gc_budget_.store(
        scaled > opts_.gc_min_budget ? scaled : opts_.gc_min_budget,
        std::memory_order_relaxed);

    gc_pending_ = false;
    gc_flag_.store(false, std::memory_order_seq_cst);
    done_cv_.notify_all();
  }

  Options opts_;
  ChunkPool chunks_;
  ShardedStats stats_{WorkStealPool::resolved_workers(opts_.workers)};
  std::atomic<std::size_t> gc_budget_;

  std::mutex mu_;                     // collection paths only
  std::condition_variable pause_cv_;  // parked/left the running set
  std::condition_variable done_cv_;   // collection finished
  unsigned paused_ = 0;               // guarded by mu_
  bool gc_pending_ = false;           // guarded by mu_
  std::atomic<bool> gc_flag_{false};  // lock-free mirror of gc_pending_
  core::ParallelCollector* gc_team_ = nullptr;  // open team, guarded by mu_
  unsigned gc_team_slots_ = 0;                  // guarded by mu_
  unsigned gc_team_next_ = 0;                   // guarded by mu_

  WorkStealPool pool_;
  std::vector<WorkerSlot> slots_;  // one per pool worker; fixed size
};

static_assert(RuntimeLike<StwRuntime>);

}  // namespace parmem
