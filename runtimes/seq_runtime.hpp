// Sequential baseline ("mlton" in fig10-fig13): one bump heap, zero-
// cost barriers, and a Cheney collector that runs with the whole world
// (one task) trivially stopped.
//
// Because there is never a second task, there is no promotion and no
// forwarding to chase: every barrier row of fig08 collapses to a plain
// load or store. This is the Ts / Ms denominator of the paper's
// overhead, speedup, and memory-inflation columns.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

#include "core/failpoint.hpp"
#include "core/gc_leaf.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/profiler.hpp"
#include "core/roots.hpp"
#include "core/stats.hpp"
#include "core/stats_json.hpp"
#include "core/trace.hpp"
#include "runtimes/runtime_api.hpp"

namespace parmem {

class SeqRuntime {
 public:
  static constexpr const char* kName = "seq";

  struct Options {
    unsigned workers = 1;  // accepted for surface parity; always runs on 1
    std::size_t gc_min_budget = std::size_t{4} << 20;
    double gc_growth_factor = 8.0;
    // Hard cap on pool bytes; 0 = PARMEM_HEAP_BUDGET, else unlimited.
    // Exceeding it triggers an emergency collection + one retry before
    // parmem::OutOfMemory reaches the program.
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
      char* p = heap_->try_bump(size);
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

    // No promotion and no concurrent mutator: every access is a plain
    // load/store. (GC forwarding pointers exist only inside a
    // collection; from-space is freed before the mutator resumes.)
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
      return o->ptrs()[i];
    }
    void write_ptr(Object* o, std::uint32_t idx, Object* v) {
      o->set_ptr_relaxed(idx, v);
    }

    Object* publish(Object* v) { return v; }

    void poll() {}  // one task, so nothing ever waits on it

    void collect_now() {
      leaf_gc_collect(heap_, &rt_->stats_.local(), [this](auto&& fn) {
        for (RootFrame* f = frames_; f != nullptr; f = f->prev()) {
          f->for_each_slot(fn);
        }
      });
    }

    SeqRuntime& runtime() { return *rt_; }
    Heap* leaf_heap() { return heap_; }
    RootFrame** root_head_ref() { return &frames_; }

    // SpawnedBranch hooks (unused: sequential fork2 never spawns).
    void branch_enter() {}
    void branch_exit() {}

   private:
    friend class SeqRuntime;

    Ctx(SeqRuntime* rt, Heap* heap) : rt_(rt), heap_(heap) {}

    Object* alloc_slow(std::uint32_t nptr, std::uint32_t nscalar) {
      if (heap_->over_gc_budget(rt_->opts_.gc_min_budget,
                                rt_->opts_.gc_growth_factor)) {
        collect_now();
      }
      Object* o;
      try {
        o = heap_->bump_alloc(nptr, nscalar);
      } catch (const OutOfMemory&) {
        // Budget hit (or injected chunk fault): emergency-collect the
        // one heap there is, then retry exactly once. A second failure
        // is the program's real OOM and propagates.
        collect_now();
        rt_->stats_.local().emergency_gcs.fetch_add(1, std::memory_order_relaxed);
        o = heap_->bump_alloc(nptr, nscalar);
      }
      o->zero_fields();
      return o;
    }

    SeqRuntime* rt_;
    Heap* heap_;
    RootFrame* frames_ = nullptr;
  };

  SeqRuntime() : SeqRuntime(Options{}) {}
  explicit SeqRuntime(const Options& opts) : opts_(opts) {
    env::install_failpoints_env();
    trace::init_from_env();
    profiler::init_from_env();
    profiler::note_stack_hi();
    chunks_.set_budget(effective_heap_budget(opts_.heap_budget_bytes));
    if (!opts_.failpoints.empty()) {
      failpoint::install(opts_.failpoints);
    }
  }
  SeqRuntime(const SeqRuntime&) = delete;
  SeqRuntime& operator=(const SeqRuntime&) = delete;

  ~SeqRuntime() {
    stats_json::write(stats_json::resolve_path(opts_.stats_json_path), kName,
                      rtapi::snapshot_of(*this));
  }

  const Options& options() const { return opts_; }
  unsigned workers() const { return 1; }
  Stats stats() const {
    return chunks_.with_chunk_counts(stats_.snapshot());
  }
  std::size_t peak_bytes() const { return chunks_.peak_bytes(); }
  std::size_t live_bytes() const { return chunks_.live_bytes(); }

  template <class F>
  auto run(F&& f) {
    Heap root(nullptr, 0, &chunks_);
    Ctx ctx(this, &root);
    return f(ctx);
  }

  // fork2 degenerates to "run f, then g, on the same task" -- the
  // paper's sequential elision. The left result still travels through
  // a rooted channel: g's allocations can trigger a leaf collection
  // that moves an Object* f returned (the same hole the parallel
  // runtimes have across the join).
  template <class F, class G>
  static auto fork2(Ctx& ctx, std::initializer_list<Local> roots, F&& f,
                    G&& g) {
    (void)roots;
    ctx.rt_->stats_.local().forks.fetch_add(1, std::memory_order_relaxed);
    using RA = rtapi::BranchResult<F, Ctx>;
    using RB = rtapi::BranchResult<G, Ctx>;
    rtapi::ResultChannel<Ctx, RA> ch_a(ctx);
    ch_a.store(ctx, rtapi::invoke_branch(f, ctx));
    RB rb = rtapi::invoke_branch(g, ctx);
    return std::pair<RA, RB>(ch_a.take(), std::move(rb));
  }

 private:
  Options opts_;
  ChunkPool chunks_;
  ShardedStats stats_{1};  // sequential: one shard
};

static_assert(RuntimeLike<SeqRuntime>);

}  // namespace parmem
