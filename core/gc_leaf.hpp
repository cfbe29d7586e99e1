// Leaf-heap collection: a Cheney-style copying collector for the one
// heap only its owning task can allocate into. Roots are the task's
// RootFrame slots; tracing stops at any object owned by an ancestor
// heap (the hierarchy invariant guarantees ancestors never point down
// into a leaf, so the leaf can be collected without looking at anyone
// else and without stopping any other task).
//
// The object forwarding word is reused for GC forwarding; stale
// promotion copies sitting in the leaf simply chase to their master
// and die with the from-space chunks.
//
// An oversized object (one that fills a dedicated chunk, core/heap.hpp)
// is not copied: a live one keeps its address, its chunk is linked back
// into the heap, and its pointer fields are scanned like a to-space
// object's. Copying it would map a fresh multi-page chunk at every
// collection only to unmap the old one.
//
// Every collection records its survivors -- copied plus kept bytes --
// on the heap (Heap::survived_bytes), which is what the runtimes'
// collection budget scales with.
#pragma once

#include <atomic>
#include <chrono>
#include <cstring>
#include <vector>

#include "core/failpoint.hpp"
#include "core/heap.hpp"
#include "core/object.hpp"
#include "core/phase.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace parmem {

// `root_iter(fn)` must invoke fn(Object** slot) for every live root
// slot of the owning task. Returns the bytes copied (oversized objects
// kept in place are not counted).
template <class RootIter>
std::size_t leaf_gc_collect(Heap* heap, StatsCell* stats,
                            RootIter&& root_iter) {
  if (heap->chunks() == nullptr) {
    // Empty heap (fresh, or all chunks already reclaimed): a true
    // no-op. In particular this must not count as a collection or
    // perturb the chunk-doubling schedule -- GC-stress mode collects
    // at every safepoint, which hits this case constantly.
    return 0;
  }
  auto t0 = std::chrono::steady_clock::now();
  // This call bills gc_count exactly once below, so it records exactly
  // one pause event; the KIND comes from the ambient phase -- a leaf
  // scan driven by a join/internal collection IS that pause's copy
  // step. The scope only retags to leaf-GC when not already inside a
  // collection phase (keeps profiler samples attributed to the
  // enclosing pause).
  const phase::Phase ambient = phase::current();
  const trace::Ev pause_kind = trace::pause_kind_from_phase(ambient);
  phase::PhaseScope phase_scope(phase::is_gc(ambient)
                                    ? ambient
                                    : phase::Phase::kLeafGc);
  const std::uint64_t trace_t0 = trace::now_ns();

  // To-space copies are collector-context allocations: exempt from the
  // heap budget and injected faults (a Cheney scan cannot unwind once
  // from-space is detached), and bounded by live data anyway.
  failpoint::GcAllocScope gc_scope;

  Chunk* from = heap->detach_chunks();
  for (Chunk* c = from; c != nullptr; c = c->next) {
    c->from_space.store(true, std::memory_order_relaxed);
  }

  std::size_t copied = 0;
  std::size_t kept = 0;
  std::vector<Object*> kept_unscanned;  // oversized, fields not yet scanned
  auto forward = [&](Object* p) -> Object* {
    if (p == nullptr) {
      return nullptr;
    }
    p = Object::chase(p);  // promoted -> master; already-copied -> to-space
    Chunk* c = chunk_of(p);
    if (!c->from_space.load(std::memory_order_relaxed) ||
        c->heap.load(std::memory_order_relaxed) != heap) {
      return p;  // ancestor-owned (or already evacuated or kept): not ours
    }
    if (c->oversized) {
      // The chunk's only object: keep the chunk instead of copying it.
      c->from_space.store(false, std::memory_order_relaxed);
      kept += p->size();
      kept_unscanned.push_back(p);
      return p;
    }
    Object* n = heap->bump_alloc(p->nptr(), p->nscalar());
    std::size_t payload = 8u * (std::size_t{p->nptr()} + p->nscalar());
    std::memcpy(n->scalars(), p->scalars(), payload);
    p->set_fwd(n, std::memory_order_relaxed);  // single-task heap: no release
    copied += n->size();
    return n;
  };

  // Write a slot back only when forwarding moved it. A slot needs
  // rewriting only if it held one of THIS heap's objects, and such
  // slots are accessed by this task alone; slots holding null or
  // foreign (e.g. global) pointers may be concurrently published into
  // by a sibling branch under the local-heap runtime, and skipping the
  // dead store keeps this scan read-only on them (no lost updates).
  // The load acquires what Local::set released: a slot of an ancestor
  // frame may hold an object a running sibling just published, and
  // forward() then reads the header of that sibling's chunk.
  root_iter([&](Object** slot) {
    Object* cur =
        std::atomic_ref<Object*>(*slot).load(std::memory_order_acquire);
    Object* fwd = forward(cur);
    if (fwd != cur) {
      std::atomic_ref<Object*>(*slot).store(fwd, std::memory_order_release);
    }
  });

  auto scan_fields = [&](Object* o) {
    std::uint32_t np = o->nptr();
    for (std::uint32_t j = 0; j < np; ++j) {
      o->ptrs()[j] = forward(o->ptrs()[j]);
    }
  };

  // Cheney scan: walk to-space objects in allocation order; the list
  // grows at the tail while we scan. Each pass resumes where the last
  // one stopped; between passes the kept oversized objects' fields are
  // scanned, which may copy more objects to the tail.
  Chunk* c = nullptr;
  char* p = nullptr;
  for (;;) {
    if (c == nullptr && heap->chunks() != nullptr) {
      c = heap->chunks();
      p = c->data();
    }
    while (c != nullptr) {
      for (;;) {
        char* limit = (c == heap->tail()) ? heap->top() : c->obj_end;
        if (p >= limit) {
          break;
        }
        Object* o = reinterpret_cast<Object*>(p);
        scan_fields(o);
        p += o->size();
      }
      if (c->next == nullptr) {
        break;
      }
      c = c->next;
      p = c->data();
    }
    if (kept_unscanned.empty()) {
      break;
    }
    Object* o = kept_unscanned.back();
    kept_unscanned.pop_back();
    scan_fields(o);
  }

  Chunk* dead = nullptr;
  while (from != nullptr) {
    Chunk* n = from->next;
    if (from->from_space.load(std::memory_order_relaxed)) {
      from->next = dead;
      dead = from;
    } else {
      heap->keep_chunk(from);
    }
    from = n;
  }
  heap->pool()->release_list(dead);
  heap->set_survived_bytes(copied + kept);
  // A full collection settles all promoted-into growth: survivors were
  // re-copied, the rest died with from-space.
  heap->reset_remote_bytes();

  auto t1 = std::chrono::steady_clock::now();
  stats->gc_count.fetch_add(1, std::memory_order_relaxed);
  stats->gc_bytes_copied.fetch_add(copied, std::memory_order_relaxed);
  stats->gc_ns.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
      std::memory_order_relaxed);
  trace::record_gc_pause(pause_kind, trace_t0, trace::now_ns() - trace_t0,
                         copied);
  return copied;
}

}  // namespace parmem
