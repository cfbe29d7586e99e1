// Tracing adapter for the per-layer run: TracedHier wraps a HierRuntime
// and its Ctx and satisfies RuntimeLike, so the unchanged workload
// kernels run through it.
//
// What it records, all from outside the runtime:
//
//   * a SPAN at every op, fork2 and branch boundary (name, start, end,
//     logical parent span, op id, thread), kept in per-thread memory and
//     written out as CSV at exit;
//   * per-thread SUMS of the nanosecond-scale calls: alloc (count, bytes,
//     time), write_ptr (count, time), mutable scalar reads and writes
//     (count only: they have no slow path worth timing). An alloc or
//     write_ptr slower than 1 us is also kept as a span;
//   * per-fork2 SELF time (its span minus the spans nested in it on the
//     same thread), the join wait of a stolen right branch, and whether
//     the right branch ran on another thread.
//
// Self time is computed online with a per-thread stack of open spans:
// closing a span adds its duration to the enclosing span's child time.
// Collections, promotions and gate stalls happen inside the runtime; the
// benchmark reads them from rt.stats() and trace::snapshot() diffs.
//
// Timestamps are TSC ticks (constant_tsc), converted to ns with a factor
// calibrated against steady_clock when the tracer is created.
#pragma once

#include <x86intrin.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/hier_runtime.hpp"
#include "runtimes/runtime_api.hpp"

namespace perfbench {

using parmem::HierRuntime;
using parmem::Local;
using parmem::Object;

inline std::uint64_t ticks() { return __rdtsc(); }

enum class SpanKind : std::uint8_t { kOp, kFork2, kBranch, kAlloc, kWritePtr };

inline const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kOp:       return "op";
    case SpanKind::kFork2:    return "fork2";
    case SpanKind::kBranch:   return "branch";
    case SpanKind::kAlloc:    return "alloc";
    case SpanKind::kWritePtr: return "write_ptr";
  }
  return "?";
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // logical parent span id, 0 = none
  std::uint64_t op = 0;
  std::uint64_t start = 0;   // ticks
  std::uint64_t end = 0;
  std::uint32_t thread = 0;
  SpanKind kind = SpanKind::kOp;
};

// Single-writer counter another thread may read once the writer is
// quiescent: a relaxed load + store, no locked read-modify-write.
class Counter {
 public:
  void add(std::uint64_t d) {
    v_.store(v_.load(std::memory_order_relaxed) + d,
             std::memory_order_relaxed);
  }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Per-thread sums, summed across threads by Tracer::totals().
struct Totals {
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_ticks = 0;
  std::uint64_t alloc_over_1us = 0;
  std::uint64_t reads_mut = 0;
  std::uint64_t writes_i64 = 0;
  std::uint64_t writes_ptr = 0;
  std::uint64_t write_ptr_ticks = 0;
  std::uint64_t forks = 0;
  std::uint64_t fork_self_ticks = 0;  // fork2 self time minus join wait
  std::uint64_t join_wait_ticks = 0;
  std::uint64_t steals = 0;  // right branches run off the forker's thread
};

struct alignas(64) ThreadRec {
  ThreadRec(std::uint32_t idx, std::uint64_t us_ticks)
      : index(idx), one_us_ticks(us_ticks) {}

  const std::uint32_t index;
  const std::uint64_t one_us_ticks;  // calls slower than this become spans
  Counter allocs, alloc_bytes, alloc_ticks, alloc_over_1us;
  Counter reads_mut, writes_i64, writes_ptr, write_ptr_ticks;
  Counter forks, fork_self_ticks, join_wait_ticks, steals;
  std::uint64_t next_seq = 0;
  std::vector<Span> spans;  // capped at Tracer::kSpanCap
  std::uint64_t spans_dropped = 0;

  void reset() {
    for (Counter* c : {&allocs, &alloc_bytes, &alloc_ticks, &alloc_over_1us,
                       &reads_mut, &writes_i64, &writes_ptr, &write_ptr_ticks,
                       &forks, &fork_self_ticks, &join_wait_ticks, &steals}) {
      c->reset();
    }
    spans.clear();
    spans_dropped = 0;
  }
};

// One op (a kernel call) and the set of threads that ran its spans.
struct OpRec {
  std::uint64_t id = 0;
  std::atomic<std::uint64_t> threads{0};
};

class Tracer {
 public:
  static constexpr std::size_t kSpanCap = std::size_t{1} << 18;  // per thread

  static Tracer& get() {
    static Tracer t;
    return t;
  }

  double ns_per_tick() const { return ns_per_tick_; }

  ThreadRec* add_thread() {
    std::lock_guard<std::mutex> g(mu_);
    recs_.push_back(std::make_unique<ThreadRec>(
        static_cast<std::uint32_t>(recs_.size()), one_us_ticks_));
    recs_.back()->spans.reserve(1024);
    return recs_.back().get();
  }

  // Callers must hold every traced thread quiescent (between ops).
  void reset() {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& r : recs_) {
      r->reset();
    }
  }

  Totals totals() {
    std::lock_guard<std::mutex> g(mu_);
    Totals t;
    for (auto& r : recs_) {
      t.allocs += r->allocs.get();
      t.alloc_bytes += r->alloc_bytes.get();
      t.alloc_ticks += r->alloc_ticks.get();
      t.alloc_over_1us += r->alloc_over_1us.get();
      t.reads_mut += r->reads_mut.get();
      t.writes_i64 += r->writes_i64.get();
      t.writes_ptr += r->writes_ptr.get();
      t.write_ptr_ticks += r->write_ptr_ticks.get();
      t.forks += r->forks.get();
      t.fork_self_ticks += r->fork_self_ticks.get();
      t.join_wait_ticks += r->join_wait_ticks.get();
      t.steals += r->steals.get();
    }
    return t;
  }

  // CSV of every kept span, times in ns from the earliest kept start.
  // Returns the number of spans written, or -1 if the file cannot be
  // opened.
  long write_csv(const std::string& path) {
    std::lock_guard<std::mutex> g(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return -1;
    }
    std::uint64_t t0 = ~std::uint64_t{0};
    std::uint64_t dropped = 0;
    for (auto& r : recs_) {
      for (const Span& s : r->spans) {
        t0 = std::min(t0, s.start);
      }
      dropped += r->spans_dropped;
    }
    std::fprintf(f, "# dropped_spans=%llu\nid,parent,op,name,thread,"
                    "start_ns,end_ns\n",
                 static_cast<unsigned long long>(dropped));
    long n = 0;
    for (auto& r : recs_) {
      for (const Span& s : r->spans) {
        std::fprintf(f, "%llu,%llu,%llu,%s,%u,%.1f,%.1f\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.op), span_name(s.kind),
                     s.thread, static_cast<double>(s.start - t0) * ns_per_tick_,
                     static_cast<double>(s.end - t0) * ns_per_tick_);
        ++n;
      }
    }
    std::fclose(f);
    return n;
  }

 private:
  Tracer() {
    // Calibrate TSC ticks against steady_clock over ~20 ms.
    const auto c0 = std::chrono::steady_clock::now();
    const std::uint64_t r0 = ticks();
    auto c1 = c0;
    while (c1 - c0 < std::chrono::milliseconds(20)) {
      c1 = std::chrono::steady_clock::now();
    }
    const std::uint64_t r1 = ticks();
    ns_per_tick_ =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(c1 - c0)
                .count()) /
        static_cast<double>(r1 - r0);
    one_us_ticks_ = static_cast<std::uint64_t>(1000.0 / ns_per_tick_);
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadRec>> recs_;  // guarded by mu_
  double ns_per_tick_ = 1.0;
  std::uint64_t one_us_ticks_ = 1000;
};

// The calling thread's record, registered on first use.
inline ThreadRec& thread_rec() {
  static thread_local ThreadRec* rec = nullptr;
  if (__builtin_expect(rec == nullptr, 0)) {
    rec = Tracer::get().add_thread();
  }
  return *rec;
}

// An open span on the current thread's stack (RAII).
class SpanScope {
 public:
  SpanScope(SpanKind kind, std::uint64_t parent, OpRec* op)
      : rec_(thread_rec()),
        prev_(top()),
        op_(op),
        parent_(parent),
        id_((std::uint64_t{rec_.index} << 40) | ++rec_.next_seq),
        kind_(kind),
        start_(ticks()) {
    top() = this;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (!closed_) {
      close();
    }
  }

  // Ends the span; returns its self time (duration minus nested spans).
  std::uint64_t close() {
    closed_ = true;
    end_ = ticks();
    top() = prev_;
    const std::uint64_t dur = end_ - start_;
    charge(rec_, prev_, op_, dur);
    keep(rec_, Span{id_, parent_, op_->id, start_, end_, rec_.index, kind_});
    return dur - std::min(dur, child_);
  }

  std::uint64_t id() const { return id_; }
  std::uint64_t start() const { return start_; }
  std::uint64_t end() const { return end_; }
  std::uint64_t child_ticks() const { return child_; }
  ThreadRec& rec() const { return rec_; }

  static SpanScope*& top() {
    static thread_local SpanScope* t = nullptr;
    return t;
  }

  // Bill `dur` ticks of a span just closed on `rec`'s thread to the
  // enclosing span as nested time; the op's outermost span on a thread
  // (or one nested in another op's span, as when a helping thread runs
  // another request's branch) adds the thread to the op's set.
  static void charge(ThreadRec& rec, SpanScope* enclosing, OpRec* op,
                     std::uint64_t dur) {
    if (enclosing != nullptr) {
      enclosing->child_ += dur;
      if (enclosing->op_ == op) {
        return;
      }
    }
    op->threads.fetch_or(std::uint64_t{1} << (rec.index & 63),
                         std::memory_order_relaxed);
  }

  static void keep(ThreadRec& rec, const Span& s) {
    if (rec.spans.size() < Tracer::kSpanCap) {
      rec.spans.push_back(s);
    } else {
      ++rec.spans_dropped;
    }
  }

 private:
  ThreadRec& rec_;
  SpanScope* prev_;
  OpRec* op_;
  std::uint64_t parent_;
  std::uint64_t id_;
  SpanKind kind_;
  std::uint64_t start_;
  std::uint64_t end_ = 0;
  std::uint64_t child_ = 0;
  bool closed_ = false;
};

// A nanosecond-scale call that took over 1 us becomes a span of its own.
inline void keep_slow_call(ThreadRec& rec, SpanKind kind, OpRec* op,
                           std::uint64_t t0, std::uint64_t t1) {
  SpanScope* enclosing = SpanScope::top();
  SpanScope::charge(rec, enclosing, op, t1 - t0);
  SpanScope::keep(rec, Span{(std::uint64_t{rec.index} << 40) | ++rec.next_seq,
                            enclosing != nullptr ? enclosing->id() : 0,
                            op->id, t0, t1, rec.index, kind});
}

// Where and when a fork2 branch ended, for the forker's join-wait sum.
struct BranchEnd {
  std::uint64_t ticks = 0;
  std::uint64_t end = 0;
  std::uint32_t thread = 0;
};

class BranchScope {
 public:
  BranchScope(std::uint64_t fork_id, OpRec* op, BranchEnd* out)
      : span_(SpanKind::kBranch, fork_id, op), out_(out) {}
  BranchScope(const BranchScope&) = delete;
  BranchScope& operator=(const BranchScope&) = delete;
  ~BranchScope() {
    span_.close();
    out_->ticks = span_.end() - span_.start();
    out_->end = span_.end();
    out_->thread = span_.rec().index;
  }

 private:
  SpanScope span_;
  BranchEnd* out_;
};

class TracedHier {
 public:
  static constexpr const char* kName = "hier-traced";
  using Options = HierRuntime::Options;

  class Ctx {
   public:
    Ctx(HierRuntime::Ctx& in, OpRec* op) : in_(&in), op_(op) {}
    Ctx(const Ctx&) = delete;
    Ctx& operator=(const Ctx&) = delete;

    Object* alloc(std::uint32_t nptr, std::uint32_t nscalar) {
      ThreadRec& r = thread_rec();
      const std::uint64_t t0 = ticks();
      Object* o = in_->alloc(nptr, nscalar);
      const std::uint64_t t1 = ticks();
      r.allocs.add(1);
      r.alloc_bytes.add(Object::size_bytes(nptr, nscalar));
      r.alloc_ticks.add(t1 - t0);
      if (__builtin_expect(t1 - t0 > r.one_us_ticks, 0)) {
        r.alloc_over_1us.add(1);
        keep_slow_call(r, SpanKind::kAlloc, op_, t0, t1);
      }
      return o;
    }

    static void init_i64(Object* o, std::uint32_t i, std::int64_t v) {
      HierRuntime::Ctx::init_i64(o, i, v);
    }
    static void init_ptr(Object* o, std::uint32_t i, Object* v) {
      HierRuntime::Ctx::init_ptr(o, i, v);
    }
    static std::int64_t read_i64_imm(const Object* o, std::uint32_t i) {
      return HierRuntime::Ctx::read_i64_imm(o, i);
    }
    static std::int64_t read_i64_mut(Object* o, std::uint32_t i) {
      thread_rec().reads_mut.add(1);
      return HierRuntime::Ctx::read_i64_mut(o, i);
    }
    static void write_i64(Object* o, std::uint32_t i, std::int64_t v) {
      thread_rec().writes_i64.add(1);
      HierRuntime::Ctx::write_i64(o, i, v);
    }
    static Object* read_ptr(Object* o, std::uint32_t i) {
      return HierRuntime::Ctx::read_ptr(o, i);
    }

    void write_ptr(Object* o, std::uint32_t idx, Object* v) {
      ThreadRec& r = thread_rec();
      const std::uint64_t t0 = ticks();
      in_->write_ptr(o, idx, v);
      const std::uint64_t t1 = ticks();
      r.writes_ptr.add(1);
      r.write_ptr_ticks.add(t1 - t0);
      if (__builtin_expect(t1 - t0 > r.one_us_ticks, 0)) {
        keep_slow_call(r, SpanKind::kWritePtr, op_, t0, t1);
      }
    }

    Object* publish(Object* v) { return in_->publish(v); }
    void collect_now() { in_->collect_now(); }
    parmem::RootFrame** root_head_ref() { return in_->root_head_ref(); }
    void branch_enter() { in_->branch_enter(); }
    void branch_exit() { in_->branch_exit(); }

   private:
    friend class TracedHier;
    HierRuntime::Ctx* in_;
    OpRec* op_;
  };

  explicit TracedHier(HierRuntime& inner) : in_(inner) {}
  TracedHier(const TracedHier&) = delete;
  TracedHier& operator=(const TracedHier&) = delete;

  unsigned workers() const { return in_.workers(); }
  parmem::Stats stats() const { return in_.stats(); }
  std::size_t peak_bytes() const { return in_.peak_bytes(); }
  std::size_t live_bytes() const { return in_.live_bytes(); }

  // Op that the next run() bills its spans to.
  void set_op(OpRec* op) { op_ = op; }

  template <class F>
  auto run(F&& f) {
    return in_.run([&](HierRuntime::Ctx& ic) {
      Ctx c(ic, op_);
      return f(c);
    });
  }

  template <class F, class G>
  static auto fork2(Ctx& c, std::initializer_list<Local> roots, F&& f,
                    G&& g) {
    SpanScope* enclosing = SpanScope::top();
    SpanScope fork(SpanKind::kFork2,
                   enclosing != nullptr ? enclosing->id() : 0, c.op_);
    ThreadRec& forker = fork.rec();
    BranchEnd a;
    BranchEnd b;
    auto branch = [&fork, op = c.op_](auto& fn, BranchEnd* end) {
      return [&fn, end, op, id = fork.id()](HierRuntime::Ctx& ic)
                 -> decltype(auto) {
        BranchScope span(id, op, end);
        Ctx cc(ic, op);
        return fn(cc);
      };
    };
    auto out = HierRuntime::fork2(*c.in_, roots, branch(f, &a), branch(g, &b));
    const std::uint64_t self = fork.close();
    // A stolen right branch leaves the forker waiting from the end of
    // its left branch to the thief's finish, less any work it helped
    // with meanwhile (spans nested in the fork2 after the left branch).
    std::uint64_t wait = 0;
    if (b.thread != forker.index) {
      const std::uint64_t helped = fork.child_ticks() - a.ticks;
      if (b.end > a.end + helped) {
        wait = std::min(self, b.end - a.end - helped);
      }
      forker.steals.add(1);
    }
    forker.forks.add(1);
    forker.join_wait_ticks.add(wait);
    forker.fork_self_ticks.add(self - wait);
    return out;
  }

 private:
  HierRuntime& in_;
  OpRec* op_ = nullptr;
};

static_assert(parmem::RuntimeLike<TracedHier>);

}  // namespace perfbench
