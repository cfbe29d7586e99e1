// Workload kernels for the figure/ablation drivers, templated over the
// runtime (seq / stw / localheap / hier -- anything RuntimeLike). Each
// kernel returns a KernelOut whose checksum is deterministic across
// runtimes and worker counts; the parity tests assert exactly that.
//
// All kernels follow the portability contract of runtimes/runtime_api.hpp:
//
//   * anything live across an alloc or a fork2 sits in a RootFrame Local;
//   * branches hand heap results to the parent by publish()-ing them into
//     a parent Local as their last heap action, and return only scalars;
//   * structures shared across a fork are listed in fork2's roots.
//
// Pure kernels represent sequences as weight-balanced ROPES (leaf chunks
// of <= kLeafCap boxed i64s under binary nodes) built bottom-up by the
// fork tree: under hierarchical heaps the pieces flow to the parent by
// the join-time merge (zero promotion); under local heaps every publish
// is a promotion -- which is precisely the contrast fig10 and
// tab_promotion_volume measure. Imperative kernels mutate flat scalar
// arrays in place through the write barriers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_common/harness.hpp"
#include "core/object.hpp"
#include "core/roots.hpp"

namespace parmem::bench {

struct KernelOut {
  std::int64_t checksum = 0;
};

namespace wl {

inline constexpr std::int64_t kLeafCap = 1024;  // elements per rope leaf

inline std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Rope layout: leaf = {nptr 0, scalars [len, v0..v(len-1)]},
//              node = {nptr 2 (left,right), scalars [element count]}.
template <class Ctx>
std::int64_t rope_count(Object* r) {
  return Ctx::read_i64_imm(r, 0);
}

template <class Ctx>
Object* rope_leaf(Ctx& c, const std::int64_t* vals, std::int64_t len) {
  Object* o = c.alloc(0, static_cast<std::uint32_t>(1 + len));
  Ctx::init_i64(o, 0, len);
  for (std::int64_t i = 0; i < len; ++i) {
    Ctx::init_i64(o, static_cast<std::uint32_t>(1 + i), vals[i]);
  }
  return o;
}

template <class Ctx>
Object* rope_node(Ctx& c, const Local& l, const Local& r) {
  Object* o = c.alloc(2, 1);
  Object* lp = l.get();  // re-read after the alloc: it may have collected
  Object* rp = r.get();
  Ctx::init_i64(o, 0, rope_count<Ctx>(lp) + rope_count<Ctx>(rp));
  Ctx::init_ptr(o, 0, lp);
  Ctx::init_ptr(o, 1, rp);
  return o;
}

// In-order element walk. Traversal allocates nothing, so raw pointers
// are safe for its duration.
template <class Ctx, class Fn>
void rope_for_each(Object* r, const Fn& fn) {
  std::vector<Object*> stack;
  stack.push_back(r);
  while (!stack.empty()) {
    Object* o = stack.back();
    stack.pop_back();
    if (o == nullptr) {
      continue;
    }
    if (o->nptr() == 2) {
      stack.push_back(Ctx::read_ptr(o, 1));
      stack.push_back(Ctx::read_ptr(o, 0));
    } else {
      std::int64_t len = Ctx::read_i64_imm(o, 0);
      for (std::int64_t i = 0; i < len; ++i) {
        fn(Ctx::read_i64_imm(o, static_cast<std::uint32_t>(1 + i)));
      }
    }
  }
}

template <class Ctx>
std::uint64_t rope_sum_seq(Object* r) {
  std::uint64_t sum = 0;
  rope_for_each<Ctx>(r, [&](std::int64_t v) {
    sum += static_cast<std::uint64_t>(v);
  });
  return sum;
}

template <class Ctx>
void rope_extract(Object* r, std::vector<std::int64_t>* out) {
  rope_for_each<Ctx>(r, [&](std::int64_t v) { out->push_back(v); });
}

template <class RT>
Object* rope_from_vec(typename RT::Ctx& c, const std::vector<std::int64_t>& v,
                      std::size_t lo, std::size_t hi) {
  using Ctx = typename RT::Ctx;
  std::size_t n = hi - lo;
  if (n <= static_cast<std::size_t>(kLeafCap)) {
    return rope_leaf(c, v.data() + lo, static_cast<std::int64_t>(n));
  }
  RootFrame fr(c);
  std::size_t mid = lo + n / 2;
  Local l = fr.local(rope_from_vec<RT>(c, v, lo, mid));
  Local r = fr.local(rope_from_vec<RT>(c, v, mid, hi));
  return rope_node<Ctx>(c, l, r);
}

template <class RT, class Gen>
Object* rope_build_seq(typename RT::Ctx& c, std::int64_t lo, std::int64_t hi,
                       const Gen& gen) {
  using Ctx = typename RT::Ctx;
  std::int64_t n = hi - lo;
  if (n <= kLeafCap) {
    Object* o = c.alloc(0, static_cast<std::uint32_t>(1 + n));
    Ctx::init_i64(o, 0, n);
    for (std::int64_t i = 0; i < n; ++i) {
      Ctx::init_i64(o, static_cast<std::uint32_t>(1 + i), gen(lo + i));
    }
    return o;
  }
  RootFrame fr(c);
  std::int64_t mid = lo + n / 2;
  Local l = fr.local(rope_build_seq<RT>(c, lo, mid, gen));
  Local r = fr.local(rope_build_seq<RT>(c, mid, hi, gen));
  return rope_node<Ctx>(c, l, r);
}

template <class RT, class Gen>
Object* rope_build(typename RT::Ctx& c, std::int64_t lo, std::int64_t hi,
                   std::int64_t grain, const Gen& gen) {
  using Ctx = typename RT::Ctx;
  if (hi - lo <= grain) {
    return rope_build_seq<RT>(c, lo, hi, gen);
  }
  RootFrame fr(c);
  Local la = fr.local(nullptr);
  Local lb = fr.local(nullptr);
  std::int64_t mid = lo + (hi - lo) / 2;
  RT::fork2(
      c, {la, lb},
      [&](Ctx& cc) {
        Object* s = rope_build<RT>(cc, lo, mid, grain, gen);
        la.set(cc.publish(s));
      },
      [&](Ctx& cc) {
        Object* s = rope_build<RT>(cc, mid, hi, grain, gen);
        lb.set(cc.publish(s));
      });
  return rope_node<Ctx>(c, la, lb);
}

template <class RT>
std::uint64_t rope_sum(typename RT::Ctx& c, const Local& in,
                       std::int64_t grain) {
  using Ctx = typename RT::Ctx;
  Object* r = in.get();
  if (r->nptr() != 2 || rope_count<Ctx>(r) <= grain) {
    return rope_sum_seq<Ctx>(r);
  }
  RootFrame fr(c);
  Local lin = fr.local(Ctx::read_ptr(r, 0));
  Local rin = fr.local(Ctx::read_ptr(r, 1));
  auto [a, b] = RT::fork2(
      c, {lin, rin},
      [&](Ctx& cc) { return rope_sum<RT>(cc, lin, grain); },
      [&](Ctx& cc) { return rope_sum<RT>(cc, rin, grain); });
  return a + b;
}

// Structural map/filter: leaves are transformed through a std::vector
// staging buffer (extract first, allocate after) so no raw input
// pointer is ever held across an allocation.
template <class RT, class F>
Object* rope_map(typename RT::Ctx& c, const Local& in, std::int64_t grain,
                 const F& f) {
  using Ctx = typename RT::Ctx;
  Object* r = in.get();
  if (r->nptr() != 2) {
    std::vector<std::int64_t> vals;
    vals.reserve(static_cast<std::size_t>(Ctx::read_i64_imm(r, 0)));
    rope_for_each<Ctx>(r, [&](std::int64_t v) { vals.push_back(f(v)); });
    return rope_leaf(c, vals.data(), static_cast<std::int64_t>(vals.size()));
  }
  RootFrame fr(c);
  Local lin = fr.local(Ctx::read_ptr(r, 0));
  Local rin = fr.local(Ctx::read_ptr(r, 1));
  Local la = fr.local(nullptr);
  Local lb = fr.local(nullptr);
  if (rope_count<Ctx>(r) <= grain) {
    la.set(rope_map<RT>(c, lin, grain, f));
    lb.set(rope_map<RT>(c, rin, grain, f));
  } else {
    RT::fork2(
        c, {lin, rin, la, lb},
        [&](Ctx& cc) { la.set(cc.publish(rope_map<RT>(cc, lin, grain, f))); },
        [&](Ctx& cc) { lb.set(cc.publish(rope_map<RT>(cc, rin, grain, f))); });
  }
  return rope_node<Ctx>(c, la, lb);
}

template <class RT, class Keep>
Object* rope_filter(typename RT::Ctx& c, const Local& in, std::int64_t grain,
                    const Keep& keep) {
  using Ctx = typename RT::Ctx;
  Object* r = in.get();
  if (r->nptr() != 2) {
    std::vector<std::int64_t> vals;
    rope_for_each<Ctx>(r, [&](std::int64_t v) {
      if (keep(v)) {
        vals.push_back(v);
      }
    });
    return rope_leaf(c, vals.data(), static_cast<std::int64_t>(vals.size()));
  }
  RootFrame fr(c);
  Local lin = fr.local(Ctx::read_ptr(r, 0));
  Local rin = fr.local(Ctx::read_ptr(r, 1));
  Local la = fr.local(nullptr);
  Local lb = fr.local(nullptr);
  if (rope_count<Ctx>(r) <= grain) {
    la.set(rope_filter<RT>(c, lin, grain, keep));
    lb.set(rope_filter<RT>(c, rin, grain, keep));
  } else {
    RT::fork2(
        c, {lin, rin, la, lb},
        [&](Ctx& cc) {
          la.set(cc.publish(rope_filter<RT>(cc, lin, grain, keep)));
        },
        [&](Ctx& cc) {
          lb.set(cc.publish(rope_filter<RT>(cc, rin, grain, keep)));
        });
  }
  return rope_node<Ctx>(c, la, lb);
}

// Purely functional mergesort over ropes: sorted subsequences are fresh
// ropes; the merge stages both inputs through vectors (allocation-free
// extraction) before building the output.
template <class RT>
Object* msort_pure_rec(typename RT::Ctx& c, const Local& in,
                       std::int64_t grain) {
  using Ctx = typename RT::Ctx;
  Object* r = in.get();
  if (r->nptr() != 2 || rope_count<Ctx>(r) <= grain) {
    std::vector<std::int64_t> vals;
    vals.reserve(static_cast<std::size_t>(rope_count<Ctx>(r)));
    rope_extract<Ctx>(r, &vals);
    std::sort(vals.begin(), vals.end());
    return rope_from_vec<RT>(c, vals, 0, vals.size());
  }
  RootFrame fr(c);
  Local lin = fr.local(Ctx::read_ptr(r, 0));
  Local rin = fr.local(Ctx::read_ptr(r, 1));
  Local la = fr.local(nullptr);
  Local lb = fr.local(nullptr);
  RT::fork2(
      c, {lin, rin, la, lb},
      [&](Ctx& cc) {
        la.set(cc.publish(msort_pure_rec<RT>(cc, lin, grain)));
      },
      [&](Ctx& cc) {
        lb.set(cc.publish(msort_pure_rec<RT>(cc, rin, grain)));
      });
  std::vector<std::int64_t> a;
  std::vector<std::int64_t> b;
  rope_extract<Ctx>(la.get(), &a);
  rope_extract<Ctx>(lb.get(), &b);
  std::vector<std::int64_t> out(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());
  return rope_from_vec<RT>(c, out, 0, out.size());
}

template <class RT>
std::int64_t fib_rec(typename RT::Ctx& c, std::int64_t n) {
  using Ctx = typename RT::Ctx;
  if (n < 2) {
    // Box the base case so fib exercises the allocator like the ML
    // original (boxed arithmetic), not just the scheduler.
    Object* b = c.alloc(0, 1);
    Ctx::init_i64(b, 0, n);
    return Ctx::read_i64_imm(b, 0);
  }
  if (n < 16) {
    return fib_rec<RT>(c, n - 1) + fib_rec<RT>(c, n - 2);
  }
  auto [a, b] = RT::fork2(
      c, {}, [&](Ctx& cc) { return fib_rec<RT>(cc, n - 1); },
      [&](Ctx& cc) { return fib_rec<RT>(cc, n - 2); });
  return a + b;
}

// Ordered weighted sum so permutations are caught, not just multisets.
template <class Ctx>
std::uint64_t rope_ordered_checksum(Object* r) {
  std::uint64_t sum = 0;
  std::uint64_t i = 0;
  rope_for_each<Ctx>(r, [&](std::int64_t v) {
    sum += static_cast<std::uint64_t>(v) * (i % 255 + 1);
    ++i;
  });
  return sum + i;
}

// ---- dense / sparse linear algebra over flat scalar arrays ----------------

template <class RT>
void dmm_rec(typename RT::Ctx& c, const Local& A, const Local& B,
             const Local& C, std::int64_t n, std::int64_t r0, std::int64_t r1,
             std::int64_t c0, std::int64_t c1) {
  using Ctx = typename RT::Ctx;
  constexpr std::int64_t kBlock = 1024;  // cells per sequential block
  std::int64_t rows = r1 - r0;
  std::int64_t cols = c1 - c0;
  if (rows * cols <= kBlock || rows == 1 || cols == 1) {
    Object* a = A.get();  // loop allocates nothing: raw pointers are safe
    Object* b = B.get();
    Object* cm = C.get();
    for (std::int64_t i = r0; i < r1; ++i) {
      for (std::int64_t j = c0; j < c1; ++j) {
        std::int64_t sum = 0;
        for (std::int64_t k = 0; k < n; ++k) {
          sum += Ctx::read_i64_imm(a, static_cast<std::uint32_t>(i * n + k)) *
                 Ctx::read_i64_imm(b, static_cast<std::uint32_t>(k * n + j));
        }
        Ctx::write_i64(cm, static_cast<std::uint32_t>(i * n + j), sum);
      }
    }
    return;
  }
  if (rows >= cols) {
    std::int64_t rm = r0 + rows / 2;
    RT::fork2(
        c, {A, B, C},
        [&](Ctx& cc) { dmm_rec<RT>(cc, A, B, C, n, r0, rm, c0, c1); },
        [&](Ctx& cc) { dmm_rec<RT>(cc, A, B, C, n, rm, r1, c0, c1); });
  } else {
    std::int64_t cm = c0 + cols / 2;
    RT::fork2(
        c, {A, B, C},
        [&](Ctx& cc) { dmm_rec<RT>(cc, A, B, C, n, r0, r1, c0, cm); },
        [&](Ctx& cc) { dmm_rec<RT>(cc, A, B, C, n, r0, r1, cm, c1); });
  }
}

template <class RT>
void smvm_rec(typename RT::Ctx& c, const Local& col, const Local& val,
              const Local& x, const Local& y, std::int64_t nnz_per,
              std::int64_t r0, std::int64_t r1, std::int64_t grain) {
  using Ctx = typename RT::Ctx;
  if (r1 - r0 <= grain) {
    Object* co = col.get();
    Object* vo = val.get();
    Object* xo = x.get();
    Object* yo = y.get();
    for (std::int64_t i = r0; i < r1; ++i) {
      std::int64_t sum = 0;
      for (std::int64_t k = i * nnz_per; k < (i + 1) * nnz_per; ++k) {
        std::int64_t j = Ctx::read_i64_imm(co, static_cast<std::uint32_t>(k));
        sum += Ctx::read_i64_imm(vo, static_cast<std::uint32_t>(k)) *
               Ctx::read_i64_imm(xo, static_cast<std::uint32_t>(j));
      }
      Ctx::write_i64(yo, static_cast<std::uint32_t>(i), sum);
    }
    return;
  }
  std::int64_t mid = r0 + (r1 - r0) / 2;
  RT::fork2(
      c, {col, val, x, y},
      [&](Ctx& cc) {
        smvm_rec<RT>(cc, col, val, x, y, nnz_per, r0, mid, grain);
      },
      [&](Ctx& cc) {
        smvm_rec<RT>(cc, col, val, x, y, nnz_per, mid, r1, grain);
      });
}

// ---- imperative in-place mergesort ----------------------------------------

template <class RT>
void msort_imp_rec(typename RT::Ctx& c, const Local& data, const Local& tmp,
                   std::int64_t lo, std::int64_t hi, std::int64_t grain) {
  using Ctx = typename RT::Ctx;
  if (hi - lo <= grain) {
    Object* d = data.get();
    std::vector<std::int64_t> vals(static_cast<std::size_t>(hi - lo));
    for (std::int64_t i = lo; i < hi; ++i) {
      vals[static_cast<std::size_t>(i - lo)] =
          Ctx::read_i64_mut(d, static_cast<std::uint32_t>(i));
    }
    std::sort(vals.begin(), vals.end());
    for (std::int64_t i = lo; i < hi; ++i) {
      Ctx::write_i64(d, static_cast<std::uint32_t>(i),
                     vals[static_cast<std::size_t>(i - lo)]);
    }
    return;
  }
  std::int64_t mid = lo + (hi - lo) / 2;
  RT::fork2(
      c, {data, tmp},
      [&](Ctx& cc) { msort_imp_rec<RT>(cc, data, tmp, lo, mid, grain); },
      [&](Ctx& cc) { msort_imp_rec<RT>(cc, data, tmp, mid, hi, grain); });
  // Merge the two sorted halves through the shared temp buffer. Only
  // this task touches [lo,hi) now; siblings work on disjoint ranges.
  Object* d = data.get();
  Object* t = tmp.get();
  std::int64_t i = lo;
  std::int64_t j = mid;
  for (std::int64_t k = lo; k < hi; ++k) {
    std::int64_t vi = i < mid
                          ? Ctx::read_i64_mut(d, static_cast<std::uint32_t>(i))
                          : 0;
    std::int64_t vj = j < hi
                          ? Ctx::read_i64_mut(d, static_cast<std::uint32_t>(j))
                          : 0;
    if (j >= hi || (i < mid && vi <= vj)) {
      Ctx::write_i64(t, static_cast<std::uint32_t>(k), vi);
      ++i;
    } else {
      Ctx::write_i64(t, static_cast<std::uint32_t>(k), vj);
      ++j;
    }
  }
  for (std::int64_t k = lo; k < hi; ++k) {
    Ctx::write_i64(d, static_cast<std::uint32_t>(k),
                   Ctx::read_i64_mut(t, static_cast<std::uint32_t>(k)));
  }
}

// ---- two-phase frontier machinery (USP grid BFS + graph reachability) -----
//
// Two phases per round keep it race-free AND deterministic on every
// runtime: a read-only parallel scan finds the vertices adjacent to the
// current frontier, then a parallel apply visits them and writes their
// distances (disjoint vertices, no concurrent readers). The scan is
// generic over the adjacency test so the 4-neighbour grid (usp) and an
// explicit edge list (reachability) share the machinery.

// Pull-based frontier scan: collect the unvisited vertices in [lo, hi)
// for which `adj(dd, ax, v)` sees a frontier neighbour. `aux` is
// whatever extra structure the adjacency test reads (the edge array for
// reachability; pass `dist` again when there is none) -- it rides in
// the fork roots so every runtime may treat it as shared. The scan
// allocates nothing, so the leaf hands raw pointers to `adj`.
template <class RT, class Adj>
std::vector<std::int64_t> frontier_scan(typename RT::Ctx& c,
                                        const Local& dist, const Local& aux,
                                        std::int64_t lo, std::int64_t hi,
                                        std::int64_t grain, const Adj& adj) {
  using Ctx = typename RT::Ctx;
  if (hi - lo <= grain) {
    std::vector<std::int64_t> found;
    Object* dd = dist.get();  // read-only scan: no allocations
    Object* ax = aux.get();
    for (std::int64_t v = lo; v < hi; ++v) {
      if (Ctx::read_i64_mut(dd, static_cast<std::uint32_t>(v)) != -1) {
        continue;
      }
      if (adj(dd, ax, v)) {
        found.push_back(v);
      }
    }
    return found;
  }
  std::int64_t mid = lo + (hi - lo) / 2;
  auto [a, b] = RT::fork2(
      c, {dist, aux},
      [&](Ctx& cc) {
        return frontier_scan<RT>(cc, dist, aux, lo, mid, grain, adj);
      },
      [&](Ctx& cc) {
        return frontier_scan<RT>(cc, dist, aux, mid, hi, grain, adj);
      });
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

template <class RT, class Visit>
void usp_apply(typename RT::Ctx& c, const Local& dist, const Local& aux,
               const std::vector<std::int64_t>& found, std::size_t lo,
               std::size_t hi, std::int64_t d, std::size_t grain,
               const Visit& visit) {
  using Ctx = typename RT::Ctx;
  if (hi - lo <= grain) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::int64_t v = found[i];
      visit(c, v);  // may allocate and write_ptr (usp-tree's promotion)
      Ctx::write_i64(dist.get(), static_cast<std::uint32_t>(v), d + 1);
    }
    return;
  }
  std::size_t mid = lo + (hi - lo) / 2;
  RT::fork2(
      c, {dist, aux},
      [&](Ctx& cc) {
        usp_apply<RT>(cc, dist, aux, found, lo, mid, d, grain, visit);
      },
      [&](Ctx& cc) {
        usp_apply<RT>(cc, dist, aux, found, mid, hi, d, grain, visit);
      });
}

template <class RT, class Visit>
std::uint64_t usp_bfs(typename RT::Ctx& c, const Local& dist,
                      const Local& aux, std::int64_t side,
                      const Visit& visit) {
  using Ctx = typename RT::Ctx;
  std::int64_t cells = side * side;
  std::int64_t scan_grain = side * 2 > 64 ? side * 2 : 64;
  std::size_t apply_grain = 64;
  visit(c, std::int64_t{0});
  Ctx::write_i64(dist.get(), 0, 0);
  for (std::int64_t d = 0;; ++d) {
    auto grid_adj = [side, d](Object* dd, Object*, std::int64_t v) {
      std::int64_t x = v % side;
      std::int64_t y = v / side;
      auto at = [&](std::int64_t u) {
        return Ctx::read_i64_mut(dd, static_cast<std::uint32_t>(u));
      };
      return (x > 0 && at(v - 1) == d) || (x + 1 < side && at(v + 1) == d) ||
             (y > 0 && at(v - side) == d) ||
             (y + 1 < side && at(v + side) == d);
    };
    std::vector<std::int64_t> found =
        frontier_scan<RT>(c, dist, dist, 0, cells, scan_grain, grid_adj);
    if (found.empty()) {
      break;
    }
    // Always apply through at least one fork so visitations run in
    // CHILD tasks: under hierarchical heaps that makes each usp-tree
    // visit of the left half (and of a stolen right half) an
    // entangling (promoting) write, whatever the frontier size. An
    // unstolen right half runs in this task's heap and writes locally.
    std::size_t half = found.size() / 2;
    RT::fork2(
        c, {dist, aux},
        [&](Ctx& cc) {
          usp_apply<RT>(cc, dist, aux, found, 0, half, d, apply_grain,
                        visit);
        },
        [&](Ctx& cc) {
          usp_apply<RT>(cc, dist, aux, found, half, found.size(), d,
                        apply_grain, visit);
        });
  }
  std::uint64_t sum = 0;
  Object* dd = dist.get();
  for (std::int64_t v = 0; v < cells; ++v) {
    sum += static_cast<std::uint64_t>(
               Ctx::read_i64_mut(dd, static_cast<std::uint32_t>(v)) + 2) *
           static_cast<std::uint64_t>(v % 1021 + 1);
  }
  return sum;
}

template <class RT>
std::uint64_t usp_tree_instance(typename RT::Ctx& c, std::int64_t side) {
  using Ctx = typename RT::Ctx;
  std::int64_t cells = side * side;
  RootFrame fr(c);
  Local dist = fr.local(c.alloc(0, static_cast<std::uint32_t>(cells)));
  // The visitation tree: a pointer slot per cell in THIS task's heap,
  // so every visit's write_ptr promotes the node up to it.
  Local nodes = fr.local(c.alloc(static_cast<std::uint32_t>(cells), 0));
  {
    Object* dd = dist.get();
    for (std::int64_t v = 0; v < cells; ++v) {
      Ctx::init_i64(dd, static_cast<std::uint32_t>(v), -1);
    }
  }
  auto visit = [&](Ctx& cc, std::int64_t v) {
    Object* nd = cc.alloc(0, 1);
    Ctx::init_i64(nd, 0, v + 1);
    cc.write_ptr(nodes.get(), static_cast<std::uint32_t>(v), nd);
  };
  std::uint64_t sum = usp_bfs<RT>(c, dist, nodes, side, visit);
  Object* no = nodes.get();
  for (std::int64_t v = 0; v < cells; ++v) {
    Object* nd = Ctx::read_ptr(no, static_cast<std::uint32_t>(v));
    if (nd != nullptr) {
      sum += static_cast<std::uint64_t>(Ctx::read_i64_imm(nd, 0)) *
             static_cast<std::uint64_t>(v % 127 + 1);
    }
  }
  return sum;
}

// ---- strassen: recursive 8-way matrix multiply ----------------------------
//
// Pure, allocation-heavy recursion: every multiply of an n x n block
// returns a FRESH compact n x n product. Above the cutoff the block is
// split into quadrants; the eight half-size products are computed by a
// depth-2 fork tree (the paper's 8-way recursion), published to the
// parent, and summed/assembled into fresh arrays with init-only stores.
// A and B are never copied: recursive calls take (row, col) offsets into
// the top-level arrays with a fixed stride.

template <class RT>
Object* strassen_mul(typename RT::Ctx& c, const Local& A, const Local& B,
                     std::int64_t stride, std::int64_t ar, std::int64_t ac,
                     std::int64_t br, std::int64_t bc, std::int64_t n,
                     std::int64_t cutoff) {
  using Ctx = typename RT::Ctx;
  if (n <= cutoff) {
    Object* cm = c.alloc(0, static_cast<std::uint32_t>(n * n));
    Object* a = A.get();  // after the alloc: no more allocations below
    Object* b = B.get();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        std::int64_t sum = 0;
        for (std::int64_t k = 0; k < n; ++k) {
          sum += Ctx::read_i64_imm(
                     a, static_cast<std::uint32_t>((ar + i) * stride + ac + k)) *
                 Ctx::read_i64_imm(
                     b, static_cast<std::uint32_t>((br + k) * stride + bc + j));
        }
        Ctx::init_i64(cm, static_cast<std::uint32_t>(i * n + j), sum);
      }
    }
    return cm;
  }
  const std::int64_t h = n / 2;
  RootFrame fr(c);
  Local q00 = fr.local(nullptr);
  Local q01 = fr.local(nullptr);
  Local q10 = fr.local(nullptr);
  Local q11 = fr.local(nullptr);
  // C(qi,qj) = A(qi,0)*B(0,qj) + A(qi,1)*B(1,qj): two recursive products
  // (their own fork), summed into a fresh compact h x h block.
  auto quadrant = [&](Ctx& cc, std::int64_t qi, std::int64_t qj) -> Object* {
    RootFrame qf(cc);
    Local p1 = qf.local(nullptr);
    Local p2 = qf.local(nullptr);
    RT::fork2(
        cc, {A, B, p1, p2},
        [&](Ctx& c2) {
          p1.set(c2.publish(strassen_mul<RT>(c2, A, B, stride, ar + qi * h,
                                             ac, br, bc + qj * h, h, cutoff)));
        },
        [&](Ctx& c2) {
          p2.set(c2.publish(strassen_mul<RT>(c2, A, B, stride, ar + qi * h,
                                             ac + h, br + h, bc + qj * h, h,
                                             cutoff)));
        });
    Object* s = cc.alloc(0, static_cast<std::uint32_t>(h * h));
    Object* o1 = p1.get();
    Object* o2 = p2.get();
    for (std::int64_t t = 0; t < h * h; ++t) {
      auto idx = static_cast<std::uint32_t>(t);
      Ctx::init_i64(s, idx,
                    Ctx::read_i64_imm(o1, idx) + Ctx::read_i64_imm(o2, idx));
    }
    return s;
  };
  RT::fork2(
      c, {A, B, q00, q01, q10, q11},
      [&](Ctx& cc) {
        RT::fork2(
            cc, {A, B, q00, q01},
            [&](Ctx& c2) { q00.set(c2.publish(quadrant(c2, 0, 0))); },
            [&](Ctx& c2) { q01.set(c2.publish(quadrant(c2, 0, 1))); });
      },
      [&](Ctx& cc) {
        RT::fork2(
            cc, {A, B, q10, q11},
            [&](Ctx& c2) { q10.set(c2.publish(quadrant(c2, 1, 0))); },
            [&](Ctx& c2) { q11.set(c2.publish(quadrant(c2, 1, 1))); });
      });
  Object* cm = c.alloc(0, static_cast<std::uint32_t>(n * n));
  const Local* quads[2][2] = {{&q00, &q01}, {&q10, &q11}};
  for (std::int64_t qi = 0; qi < 2; ++qi) {
    for (std::int64_t qj = 0; qj < 2; ++qj) {
      Object* s = quads[qi][qj]->get();  // no allocations inside the copy
      for (std::int64_t i = 0; i < h; ++i) {
        for (std::int64_t j = 0; j < h; ++j) {
          Ctx::init_i64(
              cm,
              static_cast<std::uint32_t>((qi * h + i) * n + qj * h + j),
              Ctx::read_i64_imm(s, static_cast<std::uint32_t>(i * h + j)));
        }
      }
    }
  }
  return cm;
}

// ---- raytracer: per-pixel tabulate over a small fixed scene ---------------
//
// All-integer ray casting so the image is bit-identical on every
// runtime: a pinhole camera at the origin shoots one unnormalized ray
// per pixel at a handful of spheres; the nearest hit is picked by
// comparing numerators (one shared denominator d.d per ray) and shaded
// from the discriminant -- no floating point anywhere near the checksum.

inline std::int64_t ray_isqrt(std::int64_t v) {
  if (v <= 0) {
    return 0;
  }
  auto x = static_cast<std::int64_t>(__builtin_sqrt(static_cast<double>(v)));
  while (x > 0 && x * x > v) {
    --x;
  }
  while ((x + 1) * (x + 1) <= v) {
    ++x;
  }
  return x;
}

inline std::int64_t ray_trace_pixel(std::int64_t x, std::int64_t y,
                                    std::int64_t w, std::int64_t h) {
  struct Sphere {
    std::int64_t cx, cy, cz, r, albedo;
  };
  static constexpr Sphere kScene[] = {
      {-350, -100, 1200, 300, 3},
      {320, 80, 1500, 400, 5},
      {0, 450, 1000, 250, 7},
      {60, -380, 900, 180, 11},
  };
  const std::int64_t dx = 2 * x - w;
  const std::int64_t dy = 2 * y - h;
  const std::int64_t dz = w;  // focal length = image width
  std::int64_t best_num = -1;  // nearest hit minimizes t = (b - sqrt)/d.d
  std::int64_t shade = ((x ^ y) * 37) & 0xFF;  // background
  for (const Sphere& s : kScene) {
    const std::int64_t b = dx * s.cx + dy * s.cy + dz * s.cz;
    if (b <= 0) {
      continue;  // sphere behind the camera
    }
    const std::int64_t cc =
        s.cx * s.cx + s.cy * s.cy + s.cz * s.cz - s.r * s.r;
    const std::int64_t dd = dx * dx + dy * dy + dz * dz;
    const std::int64_t disc = b * b - dd * cc;
    if (disc < 0) {
      continue;
    }
    const std::int64_t sq = ray_isqrt(disc);
    const std::int64_t tnum = b - sq;
    if (tnum <= 0) {
      continue;  // camera inside the sphere
    }
    if (best_num < 0 || tnum < best_num) {
      best_num = tnum;
      shade = s.albedo * 4096 + (sq * 255) / (b + 1) + ((x * 13 + y * 7) & 15);
    }
  }
  return shade;
}

// ---- dedup: shared hash-set insertion with escaping writes ----------------
//
// The hash space is split into kDedupParts ranges; the fork tree hands
// each leaf task a run of ranges, and a task inserts exactly the input
// elements hashing into its ranges into ITS region of the shared
// open-addressing table -- writes from child tasks escape into the
// root-allocated table (scalar stores: zero promotion under hierarchical
// heaps, whole-table + input promotion at the first spawn under local
// heaps), stay disjoint across tasks, and land in deterministic input
// order within each region.

inline constexpr std::int64_t kDedupParts = 64;

template <class RT>
std::pair<std::uint64_t, std::uint64_t> dedup_rec(
    typename RT::Ctx& c, const Local& in, const Local& table, std::int64_t n,
    std::int64_t region, std::int64_t p0, std::int64_t p1) {
  using Ctx = typename RT::Ctx;
  if (p1 - p0 == 1) {
    const std::int64_t part = p0;
    const std::int64_t base = part * region;
    std::uint64_t uniques = 0;
    std::uint64_t sum = 0;
    Object* io = in.get();  // insertion loop allocates nothing
    Object* to = table.get();
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t v =
          Ctx::read_i64_imm(io, static_cast<std::uint32_t>(i));
      const std::uint64_t hash = mix64(static_cast<std::uint64_t>(v));
      if (static_cast<std::int64_t>(hash & (kDedupParts - 1)) != part) {
        continue;
      }
      std::int64_t j = static_cast<std::int64_t>(
          (hash >> 6) % static_cast<std::uint64_t>(region));
      for (std::int64_t probes = 0; probes < region; ++probes) {
        const std::int64_t slot = Ctx::read_i64_mut(
            to, static_cast<std::uint32_t>(base + j));
        if (slot == 0) {
          Ctx::write_i64(to, static_cast<std::uint32_t>(base + j), v + 1);
          ++uniques;
          sum += static_cast<std::uint64_t>(v);
          break;
        }
        if (slot == v + 1) {
          break;  // duplicate
        }
        j = j + 1 < region ? j + 1 : 0;
      }
    }
    return {uniques, sum};
  }
  std::int64_t mid = p0 + (p1 - p0) / 2;
  auto [a, b] = RT::fork2(
      c, {in, table},
      [&](Ctx& cc) { return dedup_rec<RT>(cc, in, table, n, region, p0, mid); },
      [&](Ctx& cc) {
        return dedup_rec<RT>(cc, in, table, n, region, mid, p1);
      });
  return {a.first + b.first, a.second + b.second};
}

// ---- tourney: tournament tree with parent slots written by children ------
//
// A complete binary tree over n leaves in one flat root-allocated
// array (node i's children are 2i and 2i+1; leaves fill [n, 2n)). Each
// internal slot is written exactly once, by the task that joined the
// two child subtasks -- a child-task write into the parent-owned array
// at every level of the fork tree (escaping scalar stores again: zero
// promotion under hierarchical heaps, O(tree) promotion under local
// heaps at the first spawn).

template <class RT>
std::int64_t tourney_seq(typename RT::Ctx& c, const Local& tree,
                         std::int64_t n, std::int64_t node) {
  using Ctx = typename RT::Ctx;
  Object* t = tree.get();
  if (node >= n) {
    return Ctx::read_i64_mut(t, static_cast<std::uint32_t>(node));
  }
  std::int64_t a = tourney_seq<RT>(c, tree, n, 2 * node);
  std::int64_t b = tourney_seq<RT>(c, tree, n, 2 * node + 1);
  std::int64_t w = a > b ? a : b;
  Ctx::write_i64(tree.get(), static_cast<std::uint32_t>(node), w);
  return w;
}

template <class RT>
std::int64_t tourney_rec(typename RT::Ctx& c, const Local& tree,
                         std::int64_t n, std::int64_t node,
                         std::int64_t leaves, std::int64_t grain) {
  using Ctx = typename RT::Ctx;
  if (node >= n || leaves <= grain) {
    return tourney_seq<RT>(c, tree, n, node);
  }
  auto [a, b] = RT::fork2(
      c, {tree},
      [&](Ctx& cc) {
        return tourney_rec<RT>(cc, tree, n, 2 * node, leaves / 2, grain);
      },
      [&](Ctx& cc) {
        return tourney_rec<RT>(cc, tree, n, 2 * node + 1, leaves / 2, grain);
      });
  std::int64_t w = a > b ? a : b;
  Ctx::write_i64(tree.get(), static_cast<std::uint32_t>(node), w);
  return w;
}

// ---- reachability: frontier-based reachability over an explicit graph -----
//
// Reuses the two-phase frontier machinery (frontier_scan + usp_apply)
// on a deterministic random digraph stored as a flat in-edge array:
// vertex v's kReachDeg in-edge sources sit at esrc[v*kReachDeg ..], -1
// meaning "no edge". A halving backbone (v/2 -> v, present for ~7/8 of
// vertices) keeps the diameter logarithmic while the dropped backbone
// edges leave a deterministic unreachable fringe; two mix64-derived
// extra edges add cross links. Each round mutates the shared visited
// array in place (escaping scalar stores from child tasks).

inline constexpr std::int64_t kReachDeg = 3;

// Deterministic in-edge construction, shared by bench_reachability's
// init and the host-side reachability replay in the tests (so the test
// provably checks the same graph the kernel runs on). -1 = no edge.
inline void reach_edge_sources(std::uint64_t seed, std::int64_t v,
                               std::int64_t n,
                               std::int64_t out[kReachDeg]) {
  const std::uint64_t r =
      mix64(seed ^ (static_cast<std::uint64_t>(v) * 0x2545F49));
  // Sparse in-edges: a halving backbone (dropped for a quarter of the
  // vertices) plus occasional mix64 cross edges. Vertices whose every
  // in-edge is dropped or lands in an unreached part of the graph form
  // a deterministic unreachable fringe.
  out[0] = (v > 0 && r % 4 != 0) ? v / 2 : -1;
  out[1] = (v > 0 && ((r >> 8) & 1) != 0)
               ? static_cast<std::int64_t>(mix64(r + 1) %
                                           static_cast<std::uint64_t>(v))
               : -1;
  out[2] = ((r >> 16) & 3) == 0
               ? static_cast<std::int64_t>(mix64(r + 2) %
                                           static_cast<std::uint64_t>(n))
               : -1;
}

template <class RT>
std::uint64_t reach_bfs(typename RT::Ctx& c, const Local& visited,
                        const Local& esrc, std::int64_t n) {
  using Ctx = typename RT::Ctx;
  std::int64_t scan_grain = 512;
  std::size_t apply_grain = 64;
  Ctx::write_i64(visited.get(), 0, 0);
  auto visit = [](Ctx&, std::int64_t) {};
  for (std::int64_t d = 0;; ++d) {
    auto edge_adj = [d](Object* dd, Object* eo, std::int64_t v) {
      for (std::int64_t j = 0; j < kReachDeg; ++j) {
        const std::int64_t u = Ctx::read_i64_imm(
            eo, static_cast<std::uint32_t>(v * kReachDeg + j));
        if (u >= 0 &&
            Ctx::read_i64_mut(dd, static_cast<std::uint32_t>(u)) == d) {
          return true;
        }
      }
      return false;
    };
    std::vector<std::int64_t> found =
        frontier_scan<RT>(c, visited, esrc, 0, n, scan_grain, edge_adj);
    if (found.empty()) {
      break;
    }
    std::size_t half = found.size() / 2;
    RT::fork2(
        c, {visited, esrc},
        [&](Ctx& cc) {
          usp_apply<RT>(cc, visited, esrc, found, 0, half, d, apply_grain,
                        visit);
        },
        [&](Ctx& cc) {
          usp_apply<RT>(cc, visited, esrc, found, half, found.size(), d,
                        apply_grain, visit);
        });
  }
  std::uint64_t sum = 0;
  std::uint64_t reached = 0;
  Object* dd = visited.get();
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t lvl =
        Ctx::read_i64_mut(dd, static_cast<std::uint32_t>(v));
    if (lvl >= 0) {
      ++reached;
    }
    sum += static_cast<std::uint64_t>(lvl + 2) *
           static_cast<std::uint64_t>(v % 1021 + 1);
  }
  return sum * 31 + reached;
}

}  // namespace wl

// ---- the kernels ----------------------------------------------------------

template <class RT>
KernelOut bench_fib(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    return KernelOut{wl::fib_rec<RT>(c, z.fib_n)};
  });
}

template <class RT>
KernelOut bench_tabulate(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    std::uint64_t seed = z.seed;
    auto gen = [seed](std::int64_t i) {
      return static_cast<std::int64_t>(
          wl::mix64(seed + static_cast<std::uint64_t>(i)) & 0xFFFF);
    };
    RootFrame fr(c);
    Local rope = fr.local(nullptr);
    rope.set(wl::rope_build<RT>(c, 0, z.seq_n, z.seq_grain, gen));
    return KernelOut{static_cast<std::int64_t>(
        wl::rope_sum<RT>(c, rope, z.seq_grain))};
  });
}

template <class RT>
KernelOut bench_map(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    std::uint64_t seed = z.seed;
    auto gen = [seed](std::int64_t i) {
      return static_cast<std::int64_t>(
          wl::mix64(seed ^ static_cast<std::uint64_t>(i)) & 0xFFFF);
    };
    RootFrame fr(c);
    Local in = fr.local(nullptr);
    in.set(wl::rope_build<RT>(c, 0, z.seq_n, z.seq_grain, gen));
    Local out = fr.local(nullptr);
    out.set(wl::rope_map<RT>(c, in, z.seq_grain,
                             [](std::int64_t v) { return v * 3 + 1; }));
    return KernelOut{static_cast<std::int64_t>(
        wl::rope_sum<RT>(c, out, z.seq_grain))};
  });
}

template <class RT>
KernelOut bench_reduce(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    std::uint64_t seed = z.seed * 31;
    auto gen = [seed](std::int64_t i) {
      return static_cast<std::int64_t>(
          wl::mix64(seed + static_cast<std::uint64_t>(i)) & 0xFFFFF);
    };
    RootFrame fr(c);
    Local rope = fr.local(nullptr);
    rope.set(wl::rope_build<RT>(c, 0, z.seq_n, z.seq_grain, gen));
    // The measured phase: several reduction passes over the same rope.
    std::uint64_t sum = 0;
    for (int pass = 0; pass < 4; ++pass) {
      sum += wl::rope_sum<RT>(c, rope, z.seq_grain);
    }
    return KernelOut{static_cast<std::int64_t>(sum)};
  });
}

template <class RT>
KernelOut bench_filter(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    std::uint64_t seed = z.seed ^ 0xf117e5;
    auto gen = [seed](std::int64_t i) {
      return static_cast<std::int64_t>(
          wl::mix64(seed + static_cast<std::uint64_t>(i)) & 0xFFFF);
    };
    RootFrame fr(c);
    Local in = fr.local(nullptr);
    in.set(wl::rope_build<RT>(c, 0, z.seq_n, z.seq_grain, gen));
    Local out = fr.local(nullptr);
    out.set(wl::rope_filter<RT>(c, in, z.seq_grain,
                                [](std::int64_t v) { return (v & 7) < 3; }));
    std::uint64_t kept = static_cast<std::uint64_t>(
        wl::rope_count<typename RT::Ctx>(out.get()));
    return KernelOut{static_cast<std::int64_t>(
        wl::rope_sum<RT>(c, out, z.seq_grain) * 31 + kept)};
  });
}

template <class RT>
KernelOut bench_msort_pure(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    std::uint64_t seed = z.seed ^ 0x50f7;
    auto gen = [seed](std::int64_t i) {
      return static_cast<std::int64_t>(
          wl::mix64(seed + static_cast<std::uint64_t>(i)) & 0x7FFFFFFF);
    };
    RootFrame fr(c);
    Local in = fr.local(nullptr);
    in.set(wl::rope_build<RT>(c, 0, z.msort_pure_n, z.sort_grain, gen));
    Local out = fr.local(nullptr);
    out.set(wl::msort_pure_rec<RT>(c, in, z.sort_grain));
    return KernelOut{static_cast<std::int64_t>(
        wl::rope_ordered_checksum<typename RT::Ctx>(out.get()))};
  });
}

template <class RT>
KernelOut bench_dmm(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    using Ctx = typename RT::Ctx;
    const std::int64_t n = z.dmm_n;
    const auto cells = static_cast<std::uint32_t>(n * n);
    RootFrame fr(c);
    Local A = fr.local(c.alloc(0, cells));
    Local B = fr.local(c.alloc(0, cells));
    Local C = fr.local(c.alloc(0, cells));
    {
      Object* a = A.get();
      Object* b = B.get();
      for (std::int64_t i = 0; i < n * n; ++i) {
        auto idx = static_cast<std::uint32_t>(i);
        Ctx::init_i64(a, idx,
                      static_cast<std::int64_t>(
                          wl::mix64(z.seed + static_cast<std::uint64_t>(i)) &
                          0x3F));
        Ctx::init_i64(b, idx,
                      static_cast<std::int64_t>(
                          wl::mix64(z.seed ^ static_cast<std::uint64_t>(i)) &
                          0x3F));
      }
    }
    wl::dmm_rec<RT>(c, A, B, C, n, 0, n, 0, n);
    std::uint64_t sum = 0;
    Object* cm = C.get();
    for (std::int64_t i = 0; i < n * n; ++i) {
      sum += static_cast<std::uint64_t>(
                 Ctx::read_i64_mut(cm, static_cast<std::uint32_t>(i))) *
             static_cast<std::uint64_t>(i % 251 + 1);
    }
    return KernelOut{static_cast<std::int64_t>(sum)};
  });
}

template <class RT>
KernelOut bench_smvm(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    using Ctx = typename RT::Ctx;
    const std::int64_t rows = z.smvm_rows;
    const std::int64_t nnz_per = 8;
    RootFrame fr(c);
    Local col = fr.local(
        c.alloc(0, static_cast<std::uint32_t>(rows * nnz_per)));
    Local val = fr.local(
        c.alloc(0, static_cast<std::uint32_t>(rows * nnz_per)));
    Local x = fr.local(c.alloc(0, static_cast<std::uint32_t>(rows)));
    Local y = fr.local(c.alloc(0, static_cast<std::uint32_t>(rows)));
    {
      Object* co = col.get();
      Object* vo = val.get();
      Object* xo = x.get();
      for (std::int64_t k = 0; k < rows * nnz_per; ++k) {
        auto idx = static_cast<std::uint32_t>(k);
        Ctx::init_i64(co, idx,
                      static_cast<std::int64_t>(
                          wl::mix64(z.seed + static_cast<std::uint64_t>(k)) %
                          static_cast<std::uint64_t>(rows)));
        Ctx::init_i64(vo, idx,
                      static_cast<std::int64_t>(
                          wl::mix64(z.seed ^ static_cast<std::uint64_t>(k)) &
                          0xFF));
      }
      for (std::int64_t i = 0; i < rows; ++i) {
        Ctx::init_i64(xo, static_cast<std::uint32_t>(i),
                      static_cast<std::int64_t>(
                          wl::mix64(0x5eed + static_cast<std::uint64_t>(i)) &
                          0xFF));
      }
    }
    wl::smvm_rec<RT>(c, col, val, x, y, nnz_per, 0, rows, z.seq_grain);
    std::uint64_t sum = 0;
    Object* yo = y.get();
    for (std::int64_t i = 0; i < rows; ++i) {
      sum += static_cast<std::uint64_t>(
          Ctx::read_i64_mut(yo, static_cast<std::uint32_t>(i)));
    }
    return KernelOut{static_cast<std::int64_t>(sum)};
  });
}

template <class RT>
KernelOut bench_msort(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    using Ctx = typename RT::Ctx;
    const std::int64_t n = z.msort_n;
    RootFrame fr(c);
    Local data = fr.local(c.alloc(0, static_cast<std::uint32_t>(n)));
    Local tmp = fr.local(c.alloc(0, static_cast<std::uint32_t>(n)));
    {
      Object* d = data.get();
      for (std::int64_t i = 0; i < n; ++i) {
        Ctx::init_i64(d, static_cast<std::uint32_t>(i),
                      static_cast<std::int64_t>(
                          wl::mix64(z.seed + static_cast<std::uint64_t>(i)) &
                          0x7FFFFFFF));
      }
    }
    wl::msort_imp_rec<RT>(c, data, tmp, 0, n, z.sort_grain);
    std::uint64_t sum = 0;
    Object* d = data.get();
    for (std::int64_t i = 0; i < n; ++i) {
      sum += static_cast<std::uint64_t>(
                 Ctx::read_i64_mut(d, static_cast<std::uint32_t>(i))) *
             static_cast<std::uint64_t>(i % 255 + 1);
    }
    return KernelOut{static_cast<std::int64_t>(sum)};
  });
}

// usp: BFS distances only -- scalar mutation, no promotion anywhere.
template <class RT>
KernelOut bench_usp(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    using Ctx = typename RT::Ctx;
    const std::int64_t side = z.usp_side;
    RootFrame fr(c);
    Local dist =
        fr.local(c.alloc(0, static_cast<std::uint32_t>(side * side)));
    {
      Object* dd = dist.get();
      for (std::int64_t v = 0; v < side * side; ++v) {
        Ctx::init_i64(dd, static_cast<std::uint32_t>(v), -1);
      }
    }
    auto visit = [](Ctx&, std::int64_t) {};
    return KernelOut{static_cast<std::int64_t>(
        wl::usp_bfs<RT>(c, dist, dist, side, visit))};
  });
}

// usp-tree: every visitation links a fresh node into a tree rooted in
// the ROOT task's heap, so under hierarchical heaps each visit promotes
// to the root of the hierarchy (the Section 4.4 serialization).
template <class RT>
KernelOut bench_usp_tree(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    return KernelOut{static_cast<std::int64_t>(
        wl::usp_tree_instance<RT>(c, z.usp_side))};
  });
}

// multi-usp-tree: independent usp-tree instances forked in parallel;
// each allocates its visitation tree in ITS OWN subtree of the
// hierarchy, so promotions target disjoint heaps and can overlap.
template <class RT>
KernelOut bench_multi_usp_tree(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    using Ctx = typename RT::Ctx;
    std::int64_t side = z.usp_side * 5 / 8;
    if (side < 8) {
      side = 8;
    }
    auto instance = [side](Ctx& cc) {
      return wl::usp_tree_instance<RT>(cc, side);
    };
    auto [ab, cd] = RT::fork2(
        c, {},
        [&](Ctx& cc) {
          auto [a, b] = RT::fork2(cc, {}, instance, instance);
          return a + b;
        },
        [&](Ctx& cc) {
          auto [a, b] = RT::fork2(cc, {}, instance, instance);
          return a + b;
        });
    return KernelOut{static_cast<std::int64_t>(ab * 3 + cd)};
  });
}

// strassen: pure recursive 8-way matrix multiply; fresh product arrays
// flow up the join tree (zero promotion under hier, O(n^3/cutoff)
// promotion under local heaps).
template <class RT>
KernelOut bench_strassen(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    using Ctx = typename RT::Ctx;
    const std::int64_t n = z.strassen_n;
    const auto cells = static_cast<std::uint32_t>(n * n);
    RootFrame fr(c);
    Local A = fr.local(c.alloc(0, cells));
    Local B = fr.local(c.alloc(0, cells));
    {
      Object* a = A.get();
      Object* b = B.get();
      for (std::int64_t i = 0; i < n * n; ++i) {
        auto idx = static_cast<std::uint32_t>(i);
        Ctx::init_i64(a, idx,
                      static_cast<std::int64_t>(
                          wl::mix64(z.seed + static_cast<std::uint64_t>(i)) &
                          0x3F));
        Ctx::init_i64(b, idx,
                      static_cast<std::int64_t>(
                          wl::mix64(z.seed ^ static_cast<std::uint64_t>(i)) &
                          0x3F));
      }
    }
    Local C = fr.local(nullptr);
    C.set(wl::strassen_mul<RT>(c, A, B, n, 0, 0, 0, 0, n,
                               z.strassen_cutoff));
    std::uint64_t sum = 0;
    Object* cm = C.get();
    for (std::int64_t i = 0; i < n * n; ++i) {
      sum += static_cast<std::uint64_t>(
                 Ctx::read_i64_imm(cm, static_cast<std::uint32_t>(i))) *
             static_cast<std::uint64_t>(i % 251 + 1);
    }
    return KernelOut{static_cast<std::int64_t>(sum)};
  });
}

// raytracer: embarrassingly parallel per-pixel tabulate over a small
// scene; the image is a pure rope built by the fork tree.
template <class RT>
KernelOut bench_raytracer(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    const std::int64_t w = z.ray_w;
    const std::int64_t h = z.ray_h;
    auto gen = [w, h](std::int64_t i) {
      return wl::ray_trace_pixel(i % w, i / w, w, h);
    };
    RootFrame fr(c);
    Local img = fr.local(nullptr);
    img.set(wl::rope_build<RT>(c, 0, w * h, z.seq_grain, gen));
    return KernelOut{static_cast<std::int64_t>(
        wl::rope_ordered_checksum<typename RT::Ctx>(img.get()))};
  });
}

// dedup: imperative shared hash-set insertion. Child tasks insert into
// a root-allocated open-addressing table (escaping scalar writes).
template <class RT>
KernelOut bench_dedup(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    using Ctx = typename RT::Ctx;
    const std::int64_t n = z.dedup_n;
    // Values uniform in a power-of-two space of ~n/2, so roughly half
    // the draws collide with an earlier one (~57% duplicates for
    // power-of-two n: n draws from n/2 values).
    const std::int64_t vspace = Sizes::floor_pow2(n, 128) / 2;
    const std::int64_t vmask = vspace - 1;
    // The unique count is bounded by vspace; size the table 8x that
    // bound so each of the kDedupParts regions stays under ~11% load.
    std::int64_t region = 8 * vspace / wl::kDedupParts;
    if (region < 16) {
      region = 16;
    }
    const std::int64_t table_slots = region * wl::kDedupParts;
    RootFrame fr(c);
    Local in = fr.local(c.alloc(0, static_cast<std::uint32_t>(n)));
    Local table =
        fr.local(c.alloc(0, static_cast<std::uint32_t>(table_slots)));
    {
      Object* io = in.get();
      for (std::int64_t i = 0; i < n; ++i) {
        Ctx::init_i64(io, static_cast<std::uint32_t>(i),
                      static_cast<std::int64_t>(
                          wl::mix64(z.seed + static_cast<std::uint64_t>(i))) &
                          vmask);
      }
    }
    auto [uniques, sum] =
        wl::dedup_rec<RT>(c, in, table, n, region, 0, wl::kDedupParts);
    return KernelOut{static_cast<std::int64_t>(sum * 31 + uniques)};
  });
}

// tourney: imperative tournament tree; every internal slot is written
// by a child task into the root-allocated array.
template <class RT>
KernelOut bench_tourney(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    using Ctx = typename RT::Ctx;
    const std::int64_t n = z.tourney_n;  // leaves; tree occupies [1, 2n)
    RootFrame fr(c);
    Local tree = fr.local(c.alloc(0, static_cast<std::uint32_t>(2 * n)));
    {
      Object* t = tree.get();
      Ctx::init_i64(t, 0, 0);  // slot 0 unused
      for (std::int64_t i = 0; i < n; ++i) {
        Ctx::init_i64(t, static_cast<std::uint32_t>(n + i),
                      static_cast<std::int64_t>(
                          wl::mix64(z.seed + static_cast<std::uint64_t>(i)) &
                          0xFFFFFF));
      }
    }
    const std::int64_t grain = z.sort_grain > 64 ? z.sort_grain : 64;
    const std::int64_t winner = wl::tourney_rec<RT>(c, tree, n, 1, n, grain);
    std::uint64_t sum = static_cast<std::uint64_t>(winner);
    Object* t = tree.get();
    for (std::int64_t i = 1; i < n; ++i) {  // internal slots only
      sum += static_cast<std::uint64_t>(
                 Ctx::read_i64_mut(t, static_cast<std::uint32_t>(i))) *
             static_cast<std::uint64_t>(i % 255 + 1);
    }
    return KernelOut{static_cast<std::int64_t>(sum)};
  });
}

// reachability: frontier-based reachability over a deterministic random
// digraph; each round mutates the shared visited array in place.
template <class RT>
KernelOut bench_reachability(RT& rt, const Sizes& z) {
  return rt.run([&](typename RT::Ctx& c) {
    using Ctx = typename RT::Ctx;
    const std::int64_t n = z.reach_n;
    RootFrame fr(c);
    Local visited = fr.local(c.alloc(0, static_cast<std::uint32_t>(n)));
    Local esrc = fr.local(
        c.alloc(0, static_cast<std::uint32_t>(n * wl::kReachDeg)));
    {
      Object* dd = visited.get();
      Object* eo = esrc.get();
      for (std::int64_t v = 0; v < n; ++v) {
        Ctx::init_i64(dd, static_cast<std::uint32_t>(v), -1);
        std::int64_t e[wl::kReachDeg];
        wl::reach_edge_sources(z.seed, v, n, e);
        for (std::int64_t j = 0; j < wl::kReachDeg; ++j) {
          Ctx::init_i64(eo,
                        static_cast<std::uint32_t>(v * wl::kReachDeg + j),
                        e[j]);
        }
      }
    }
    return KernelOut{
        static_cast<std::int64_t>(wl::reach_bfs<RT>(c, visited, esrc, n))};
  });
}

}  // namespace parmem::bench
