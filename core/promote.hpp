// Promotion: when a pointer write would entangle the heap hierarchy
// (store a deeper object into a shallower one), the transitive closure
// of the written value that lives below the target heap is copied up
// into it. Old copies get forwarding pointers and stay readable, so a
// task holding a stale reference pays only a chase in its mutable
// barriers (Object::chase: one inline hop, longer chains out of line).
//
// Two synchronisation protocols:
//   kCoarseLocking -- the paper's design, with the path locks taken
//       lazily. The writer holds the target heap's lock throughout: it
//       guards the target's bump pointer and pins the target object,
//       since any task that promotes an object out of a heap holds
//       that heap's lock. The part of the closure in the writer's own
//       leaf is copied under that lock alone. No other running task
//       can reach it: the leaf has no running descendants, its
//       ancestors are blocked in fork2, and by the hierarchy invariant
//       (plus the runtime-API contract) no sibling holds a pointer
//       down into it. Only when the closure first reaches a heap
//       strictly between the target and the leaf -- one a cousin may
//       be promoting out of, or writing into, at the same time -- does
//       the writer take the rest of the path's locks (shallow-first
//       below the target, the one global order every path locker
//       uses, so no deadlock) and re-chase under them.
//       Stats::promo_escalations counts those promotions.
//   kFineGrained   -- Section 5 future work: claim each object with a
//       CAS on its forwarding word (kBusy while mid-copy) and bump the
//       target heap under a spinlock; no path locks.
//
// Promotion allocates nothing of its own beyond the copies: its scan
// queue starts inline and spills to the C++ heap only for closures of
// more than ScanQueue::kInline objects.
//
// Programs are expected to be race-free at the language level (the
// paper's deterministic fork-join setting); racing user mutation with
// a concurrent promotion of the same object is a program bug, exactly
// as racing two writes is.
#pragma once

#include <cstring>
#include <vector>

#include "core/failpoint.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/phase.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace parmem {
namespace detail {

struct PromoteResult {
  Object* master;              // src after promotion
  std::uint64_t objects = 0;   // objects copied
  std::uint64_t bytes = 0;     // bytes copied
};

// Copies not yet scanned, in copy order (Cheney-style breadth first).
// The first kInline entries live in the queue itself, on the
// promoter's stack, so promoting a small closure allocates nothing.
class ScanQueue {
 public:
  static constexpr std::size_t kInline = 32;

  void push(Object* o) {
    if (n_ < kInline) {
      inline_[n_] = o;
    } else {
      spill_.push_back(o);
    }
    ++n_;
  }
  Object* operator[](std::size_t i) const {
    return i < kInline ? inline_[i] : spill_[i - kInline];
  }
  std::size_t size() const { return n_; }

 private:
  Object* inline_[kInline];
  std::vector<Object*> spill_;
  std::size_t n_ = 0;
};

// Copy `m` (chased, strictly deeper than dst) into dst. Caller holds
// whatever lock the mode requires for dst's bump pointer.
inline Object* copy_object_into(Object* m, Heap* dst) {
  Object* n = dst->bump_alloc(m->nptr(), m->nscalar());
  std::size_t payload = 8u * (std::size_t{m->nptr()} + m->nscalar());
  std::memcpy(n->scalars(), m->scalars(), payload);
  return n;
}

// ---- coarse path-locking protocol -----------------------------------------

// The coarse protocol's locks for one promotion from `leaf` into
// `dst`: dst's path lock from construction on, and the rest of the
// path -- every heap below dst down to the leaf -- from the first
// escalate(), taken shallow-first like every other path locker's.
class LazyPathLock {
 public:
  LazyPathLock(Heap* leaf, Heap* dst) : leaf_(leaf), dst_(dst) {
    dst_->path_lock().lock();
  }
  ~LazyPathLock() {
    if (escalated_) {
      for (Heap* h = leaf_; h != dst_; h = h->parent()) {
        h->path_lock().unlock();
      }
    }
    dst_->path_lock().unlock();
  }
  LazyPathLock(const LazyPathLock&) = delete;
  LazyPathLock& operator=(const LazyPathLock&) = delete;

  Heap* target() const { return dst_; }
  Heap* leaf() const { return leaf_; }
  bool escalated() const { return escalated_; }

  // A path is a handful of heaps, so each depth's heap is found by
  // walking up from the leaf rather than by buffering the path.
  void escalate() {
    for (std::uint32_t d = dst_->depth() + 1; d <= leaf_->depth(); ++d) {
      Heap* h = leaf_;
      while (h->depth() != d) {
        h = h->parent();
      }
      h->path_lock().lock();
    }
    escalated_ = true;
  }

 private:
  Heap* leaf_;
  Heap* dst_;
  bool escalated_ = false;
};

// Promote the closure of `src` into locks.target(). Objects are
// chased to their masters; a master in a heap strictly between the
// target and the leaf escalates the locks first and is chased again
// under them, since a cousin holding those locks may have moved it.
inline PromoteResult promote_coarse_locked(Object* src, LazyPathLock& locks) {
  PromoteResult res{nullptr};
  Heap* dst = locks.target();
  const std::uint32_t target_depth = dst->depth();
  const std::uint32_t leaf_depth = locks.leaf()->depth();
  ScanQueue scan;

  // Master of `q`, copied into dst when it lives below it.
  auto lift = [&](Object* q) {
    q = Object::chase(q);
    std::uint32_t depth = heap_of(q)->depth();
    if (depth < leaf_depth && depth > target_depth && !locks.escalated()) {
      locks.escalate();
      q = Object::chase(q);
      depth = heap_of(q)->depth();
    }
    if (depth <= target_depth) {
      return q;
    }
    Object* n = copy_object_into(q, dst);
    q->set_fwd(n);  // release: publish before fields are fixed (Cheney)
    scan.push(n);
    res.objects += 1;
    res.bytes += n->size();
    return n;
  };

  res.master = lift(src);
  for (std::size_t i = 0; i < scan.size(); ++i) {
    Object* n = scan[i];
    std::uint32_t np = n->nptr();
    for (std::uint32_t j = 0; j < np; ++j) {
      Object* q = n->ptrs()[j];
      if (q != nullptr) {
        n->set_ptr_relaxed(j, lift(q));
      }
    }
  }
  return res;
}

// ---- fine-grained claim protocol ------------------------------------------

inline Object* claim_and_copy_fine(Object* m, Heap* dst,
                                   PromoteResult* res, ScanQueue* scan,
                                   StatsCell* stats) {
  std::uint32_t target_depth = dst->depth();
  for (;;) {
    m = Object::chase(m);  // spins past other claimers
    if (heap_of(m)->depth() <= target_depth) {
      return m;  // someone (possibly us, earlier) already lifted it enough
    }
    // Pre-reserve dst space BEFORE claiming: from claim_fwd to set_fwd
    // nothing may throw, or the kBusy sentinel would strand and hang
    // every chaser. reserve() is the only step that can fail (true OS
    // OOM -- budget and injected faults never fire inside the copy
    // window), and here the object is still unclaimed and chaseable.
    // The claim itself happens under the remote lock too; that is
    // safe because claimers never spin on a forwarding word while
    // holding the lock (chase() runs before acquisition), so a
    // teammate's kBusy cannot deadlock against us.
    std::size_t need = Object::size_bytes(m->nptr(), m->nscalar());
    dst->remote_lock().lock();
    try {
      dst->reserve(need);
    } catch (...) {
      dst->remote_lock().unlock();
      throw;
    }
    if (!m->claim_fwd()) {
      dst->remote_lock().unlock();
      stats->promo_claim_conflicts.fetch_add(1, std::memory_order_relaxed);
      continue;  // lost the race; chase the winner's forwarding pointer
    }
    Object* n = copy_object_into(m, dst);  // bump within the reserve
    dst->remote_lock().unlock();
    m->set_fwd(n);  // replaces kBusy; releases waiting chasers
    scan->push(n);
    res->objects += 1;
    res->bytes += n->size();
    return n;
  }
}

inline PromoteResult promote_fine(Object* src, Heap* dst, StatsCell* stats) {
  PromoteResult res{nullptr};
  ScanQueue scan;
  res.master = claim_and_copy_fine(src, dst, &res, &scan, stats);
  for (std::size_t i = 0; i < scan.size(); ++i) {
    Object* n = scan[i];
    std::uint32_t np = n->nptr();
    for (std::uint32_t j = 0; j < np; ++j) {
      Object* q = n->ptrs()[j];
      if (q == nullptr) {
        continue;
      }
      q = claim_and_copy_fine(q, dst, &res, &scan, stats);
      n->set_ptr(j, q);
    }
  }
  return res;
}

}  // namespace detail

// Promote the closure of `v` into heap_of(dst_obj) and then perform
// the entangling store dst_obj.ptr[idx] = v, all under the protocol
// selected by `mode`. `leaf` is the writing task's leaf heap.
inline void promote_and_store(Object* dst_obj, std::uint32_t idx, Object* v,
                              Heap* leaf, PromotionMode mode,
                              StatsCell* stats) {
  // The injected promote_copy fault fires HERE, before any mutation:
  // nothing is claimed or copied yet, so the throw unwinds cleanly to
  // the store that asked for the promotion.
  // (gc_exempt first: an exempt caller must not consume a scheduled hit.)
  if (__builtin_expect(!failpoint::gc_exempt() &&
                           failpoint::triggered(failpoint::Site::kPromoteCopy),
                       0)) {
    ChunkPool* pool = leaf->pool();
    throw OutOfMemory("promote_copy", 0, pool->live_bytes(), pool->budget(),
                      pool->peak_bytes());
  }
  // Past this point the copy loop is a non-unwindable window, like a
  // collection: once the first set_fwd publishes, the partial copies
  // are reachable through forwarding words, and abandoning them would
  // leave ancestor objects with un-lifted (deeper-heap) fields for a
  // later leaf GC to dangle. So budget checks and injected faults are
  // suppressed for the copies themselves -- a budget overshoot here is
  // bounded by one promoted closure and is charged at the mutator's
  // next chunk allocation instead.
  failpoint::GcAllocScope copy_scope;
  phase::PhaseScope promo_scope(phase::Phase::kPromotion);
  // Promotions can be hot (every entangling write); even the clock
  // reads are skipped unless trace rings are on.
  const bool traced = trace::ring_enabled();
  const std::uint64_t trace_t0 = traced ? trace::now_ns() : 0;
  stats->promotions.fetch_add(1, std::memory_order_relaxed);
  detail::PromoteResult res{nullptr};
  if (mode == PromotionMode::kCoarseLocking) {
    // The destination object may itself be mid-promotion by a cousin;
    // re-chase under the target's lock and restart if it moved above
    // that heap.
    for (;;) {
      Heap* dst_heap = heap_of(dst_obj = Object::chase(dst_obj));
      detail::LazyPathLock locks(leaf, dst_heap);
      Object* d = Object::chase(dst_obj);
      if (heap_of(d) != dst_heap) {
        continue;  // moved while we were acquiring; retry at new depth
      }
      res = detail::promote_coarse_locked(v, locks);
      d->set_ptr(idx, res.master);
      // Feed the internal-collection policy: this heap just grew by
      // remotely promoted bytes its owner never allocated.
      dst_heap->note_remote_bytes(res.bytes);
      if (locks.escalated()) {
        stats->promo_escalations.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
  } else {
    Heap* dst_heap = heap_of(Object::chase(dst_obj));
    res = detail::promote_fine(v, dst_heap, stats);
    Object::chase(dst_obj)->set_ptr(idx, res.master);
    dst_heap->note_remote_bytes(res.bytes);
  }
  stats->promoted_objects.fetch_add(res.objects, std::memory_order_relaxed);
  stats->promoted_bytes.fetch_add(res.bytes, std::memory_order_relaxed);
  if (traced) {
    trace::record_promotion(trace_t0, trace::now_ns() - trace_t0, res.bytes);
  }
}

}  // namespace parmem
