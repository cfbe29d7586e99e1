// The runtime-abstraction surface shared by the four comparison
// runtimes (the paper's fig10-fig13 systems):
//
//   SeqRuntime   (runtimes/seq_runtime.hpp)        mlton-like sequential
//   StwRuntime   (runtimes/stw_runtime.hpp)        spoonhower-like STW
//   LhRuntime    (runtimes/localheap_runtime.hpp)  manticore-like local heaps
//   HierRuntime  (core/hier_runtime.hpp)           hierarchical heaps
//
// Every runtime RT exposes:
//
//   RT::kName                         short stable identifier ("seq", ...)
//   RT::Options{workers, ...}         default-constructible; workers = 0
//                                     means one per hardware thread
//   RT(opts) / rt.workers()           construction + resolved worker count
//   rt.stats() -> Stats               monotonic counter snapshot
//   rt.peak_bytes() -> size_t         lifetime high-water chunk footprint
//   rt.live_bytes() -> size_t         chunk bytes currently checked out
//                                     (readable concurrently; the serve
//                                     harness samples it mid-run)
//   rt.run(f) -> f(ctx)               execute f as the root task
//   RT::fork2(ctx, {roots}, f, g)     fork-join returning {f res, g res};
//                                     `roots` lists every parent Local the
//                                     branches may touch (the local-heap
//                                     runtime promotes their closures at
//                                     spawn; the others may ignore them)
//
// and a Ctx with the allocation/barrier surface:
//
//   ctx.alloc(nptr, nscalar)          zeroed bump allocation
//   Ctx::init_i64 / Ctx::init_ptr     initialising stores (fresh objects)
//   Ctx::read_i64_imm                 immutable scalar read
//   Ctx::read_i64_mut / Ctx::write_i64   mutable scalar access
//   Ctx::read_ptr / ctx.write_ptr     pointer access (the write barrier is
//                                     where the runtimes differ)
//   ctx.publish(v)                    make v's closure safe to hand to the
//                                     parent across a join: identity under
//                                     seq/stw/hier, promotion to the global
//                                     heap under local heaps
//   ctx.poll()                        safepoint without allocating: a
//                                     task that spins on other tasks
//                                     must call it, or a stop-the-world
//                                     collection waits on the spinner
//                                     forever (not in RuntimeLike, so
//                                     wrapper runtimes need not offer it)
//   ctx.collect_now()                 force a collection
//   ctx.root_head_ref()               RootFrame chain head (precise roots)
//
// Portability contract for code written against this surface (the
// workload kernels in bench_common/workloads.hpp obey it):
//
//   - A raw Object* must not be held across ctx.alloc, ctx.poll or
//     fork2; anything live across them goes in a RootFrame Local.
//     (Collectors move objects: leaf GC under seq/lh/hier, any
//     alloc-triggered STW cycle under stw.)
//   - A branch may RETURN a raw Object*: fork2 carries each branch's
//     result through a rooted channel (ResultChannel below) -- the value
//     is published on the executing worker and parked in a parent-frame
//     Local until the join consumes it, so any collection in between
//     rewrites it like every other root. Results of other types carry
//     scalars only (an Object* buried inside a struct return is NOT
//     rooted; publish it into a parent Local instead).
//   - Shared structures both branches touch are listed in fork2's roots.
//
// bench_common::measure() consumes exactly this surface (stats(),
// peak_bytes(), run()), so any RuntimeLike runtime drops into the
// figure drivers unchanged.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>

#include "core/failpoint.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/profiler.hpp"
#include "core/roots.hpp"
#include "core/sched.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace parmem {

namespace rtapi {

// The construction prelude every runtime shares: the process-wide
// fault-injection, trace and profiler knobs, this thread's stack
// watermark, then the runtime's own heap budget and failpoint spec.
template <class Options>
void init_runtime(ChunkPool& chunks, const Options& o) {
  env::install_failpoints_env();
  trace::init_from_env();
  profiler::init_from_env();
  profiler::note_stack_hi();
  chunks.set_budget(effective_heap_budget(o.heap_budget_bytes));
  if (!o.failpoints.empty()) {
    failpoint::install(o.failpoints);
  }
}

// void branches surface as std::monostate in fork2's result pair.
template <class Fn, class Ctx>
using BranchResult = std::conditional_t<
    std::is_void_v<std::invoke_result_t<Fn&, Ctx&>>, std::monostate,
    std::decay_t<std::invoke_result_t<Fn&, Ctx&>>>;

template <class Fn, class Ctx>
BranchResult<Fn, Ctx> invoke_branch(Fn& fn, Ctx& c) {
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&, Ctx&>>) {
    fn(c);
    return std::monostate{};
  } else {
    return fn(c);
  }
}

// Rooted branch-result carrier. A branch returning a raw Object* used
// to park it in an unregistered stack slot from branch completion
// until the parent consumed it after the join -- any collection inside
// that window (a join collection of the over-budget merged heap, a
// helping joiner's leaf collection, a stopped-world pause) could
// relocate the object and leave the return value stale. The channel
// closes the hole:
//
//   * construction registers ONE Local in the PARENT's frame chain,
//     on the parent's thread, before the branch can possibly run;
//   * store() runs on whichever thread executes the branch: it
//     publishes the value (identity under seq/stw/hier; promotion
//     under local heaps, where a branch-local object must escape its
//     worker to survive the hand-off anyway) and writes the slot --
//     safe against a concurrent scan of the parent's frames because
//     Local slots are atomic and collectors rewrite only pointers
//     into the heap being collected (core/gc_leaf.hpp);
//   * take() re-reads the slot after the join, by which time any
//     collection has rewritten it like every other root.
//
// Non-pointer results pass through a plain buffer, so fork2 call
// sites need no special cases -- and pay no frame push for them.
template <class Ctx, class R>
class ResultChannel {
  static constexpr bool kRooted = std::is_same_v<R, Object*>;

 public:
  explicit ResultChannel(Ctx& parent) {
    if constexpr (kRooted) {
      frame_.emplace(parent);
      slot_ = frame_->local(nullptr);
    }
  }
  ResultChannel(const ResultChannel&) = delete;
  ResultChannel& operator=(const ResultChannel&) = delete;

  void store(Ctx& executing, R&& v) {
    if constexpr (kRooted) {
      slot_.set(executing.publish(v));
    } else {
      (void)executing;
      out_.emplace(std::move(v));
    }
  }

  R take() {
    if constexpr (kRooted) {
      return slot_.get();
    } else {
      return std::move(*out_);
    }
  }

 private:
  struct Nothing {};
  [[no_unique_address]] std::conditional_t<kRooted, std::optional<RootFrame>,
                                           Nothing>
      frame_;
  [[no_unique_address]] std::conditional_t<kRooted, Local, Nothing> slot_;
  [[no_unique_address]] std::conditional_t<kRooted, Nothing, std::optional<R>>
      out_;
};

// The spawn/join half of fork2, shared by every runtime: push the
// right branch at construction, then join() after the left branch ran
// -- popping it back for inline execution when unstolen (the common
// case), helping steal otherwise. Per-runtime work around a branch's
// execution (bind to a worker heap, enter/leave the STW running set)
// goes in Ctx::branch_enter()/branch_exit(), which run on the thread
// that actually executes the branch.
//
// `parent` is the forking context: it owns the rooted result slot
// (see ResultChannel) and must outlive the join. Stack-allocated by
// fork2 and joined before the frame dies, exactly like the tasks
// core/sched.hpp documents.
template <class Ctx, class G>
class SpawnedBranch final : public WorkStealPool::Task {
 public:
  using RB = BranchResult<G, Ctx>;

  SpawnedBranch(WorkStealPool* pool, G& g, Ctx& ctx, Ctx& parent)
      : pool_(pool), g_(&g), ctx_(&ctx), chan_(parent) {
    pool_->push(this);
  }
  SpawnedBranch(const SpawnedBranch&) = delete;
  SpawnedBranch& operator=(const SpawnedBranch&) = delete;

  void execute() override {
    ctx_->branch_enter();
    try {
      chan_.store(*ctx_, invoke_branch(*g_, *ctx_));
    } catch (...) {
      err_ = std::current_exception();
    }
    ctx_->branch_exit();
    done_.store(true, std::memory_order_release);
  }

  // Join after the left branch completed. `left_failed` skips inline
  // execution of a still-unstolen branch when the left branch already
  // threw (matching the sequential semantics of rethrowing the first
  // error).
  void join(bool left_failed) {
    if (pool_->cancel(this)) {
      if (!left_failed) {
        execute();
      }
    } else {
      pool_->help_until(
          [this] { return done_.load(std::memory_order_acquire); });
    }
  }

  std::exception_ptr error() const { return err_; }
  RB take_result() { return chan_.take(); }

 private:
  WorkStealPool* pool_;
  G* g_;
  Ctx* ctx_;
  ResultChannel<Ctx, RB> chan_;
  std::exception_ptr err_;
  std::atomic<bool> done_{false};
};

// Lock-free point-in-time sample of a runtime's counters + memory
// gauges (core/stats.hpp StatsSnapshot). Safe to call from a thread
// outside the runtime's pool while tasks keep running -- the
// steady-state surface the serve harness samples RSS/fragmentation
// against.
template <class RT>
StatsSnapshot snapshot_of(const RT& rt) {
  StatsSnapshot s;
  s.stats = rt.stats();
  s.live_bytes = rt.live_bytes();
  s.peak_bytes = rt.peak_bytes();
  return s;
}

}  // namespace rtapi

// Compile-time check of the non-template part of the surface (run and
// fork2 are templates and are covered by the parity tests instead).
template <class RT>
concept RuntimeLike = requires(const RT& crt, typename RT::Ctx& ctx,
                               Object* o, typename RT::Options opts) {
  requires std::default_initializable<typename RT::Options>;
  { opts.workers } -> std::convertible_to<unsigned>;
  { RT::kName } -> std::convertible_to<const char*>;
  { crt.workers() } -> std::convertible_to<unsigned>;
  { crt.stats() } -> std::same_as<Stats>;
  { crt.peak_bytes() } -> std::convertible_to<std::size_t>;
  { crt.live_bytes() } -> std::convertible_to<std::size_t>;
  { ctx.alloc(0u, 1u) } -> std::same_as<Object*>;
  { RT::Ctx::init_i64(o, 0u, std::int64_t{0}) };
  { RT::Ctx::init_ptr(o, 0u, o) };
  { RT::Ctx::read_i64_imm(o, 0u) } -> std::same_as<std::int64_t>;
  { RT::Ctx::read_i64_mut(o, 0u) } -> std::same_as<std::int64_t>;
  { RT::Ctx::write_i64(o, 0u, std::int64_t{0}) };
  { RT::Ctx::read_ptr(o, 0u) } -> std::same_as<Object*>;
  { ctx.write_ptr(o, 0u, o) };
  { ctx.publish(o) } -> std::same_as<Object*>;
  { ctx.collect_now() };
  { ctx.root_head_ref() } -> std::same_as<RootFrame**>;
  { ctx.branch_enter() };  // rtapi::SpawnedBranch hooks (internal)
  { ctx.branch_exit() };
};

}  // namespace parmem
