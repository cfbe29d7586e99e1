// The collection budget belongs to the heap and follows it through the
// join: a merged heap is checked at fork2's join, its children's
// survivors count toward its budget, and the leaf collector keeps
// oversized objects where they are.
#include <cstdint>

#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"
#include "runtimes/seq_runtime.hpp"
#include "tests/test_util.hpp"

namespace parmem {
namespace {

using Ctx = HierRuntime::Ctx;

constexpr int kBoxesPerLeaf = 512;  // 512 x 32 B = 16 KiB per leaf task

// A balanced fork tree whose branches return scalars: every box a leaf
// allocates is garbage by the time its leaf returns.
std::int64_t garbage_tree(Ctx& c, int depth) {
  if (depth == 0) {
    std::int64_t sum = 0;
    for (int i = 0; i < kBoxesPerLeaf; ++i) {
      Object* box = c.alloc(0, 2);
      Ctx::init_i64(box, 0, i);
      sum += Ctx::read_i64_imm(box, 0);
    }
    return sum;
  }
  auto [a, b] = HierRuntime::fork2(
      c, {}, [depth](Ctx& cc) { return garbage_tree(cc, depth - 1); },
      [depth](Ctx& cc) { return garbage_tree(cc, depth - 1); });
  return a + b;
}

// No leaf ever reaches the budget on its own, so only the join-time
// check collects: without it the root heap ends up holding the whole
// tree's 16 MiB of boxes.
PARMEM_TEST(join_budget_bounds_fork_tree_peak) {
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.gc_min_budget = std::size_t{256} << 10;
  HierRuntime rt(opts);
  const int depth = 10;  // 1024 leaves
  const std::int64_t sum = rt.run([](Ctx& c) { return garbage_tree(c, depth); });
  CHECK_EQ(sum, std::int64_t{1024} * (kBoxesPerLeaf - 1) * kBoxesPerLeaf / 2);
  CHECK(rt.peak_bytes() < 4 * opts.gc_min_budget);
  CHECK(rt.stats().gc_count > 0);
}

// perfbench's pure-bulk shape at a quarter of its size and budget: a
// rope built and mapped by a fork tree. The children's collections
// record what they kept on their heaps, and the merge adds it to the
// parent's budget, so a merged heap is not recollected just because it
// holds its children's survivors. Each live byte is copied about once;
// a budget that forgot the children's survivors copied the live rope
// again at every merge level, 3.5x the allocation in all.
PARMEM_TEST(join_budget_rope_map_copies_survivors_once) {
  bench::Sizes z;
  z.seed = 1;
  z.seq_n = std::int64_t{1} << 20;
  z.seq_grain = 8192;
  SeqRuntime seq;
  const std::int64_t ref = bench::bench_map(seq, z).checksum;

  HierRuntime::Options opts;
  opts.workers = 2;
  opts.gc_min_budget = std::size_t{1} << 20;
  HierRuntime rt(opts);
  CHECK_EQ(bench::bench_map(rt, z).checksum, ref);
  // The input rope and the mapped one: leaves of kLeafCap elements
  // joined by binary nodes.
  const std::size_t leaves =
      static_cast<std::size_t>(z.seq_n / bench::wl::kLeafCap);
  const std::size_t rope_bytes =
      leaves * Object::size_bytes(0, 1 + bench::wl::kLeafCap) +
      (leaves - 1) * Object::size_bytes(2, 1);
  const double allocated = 2.0 * static_cast<double>(rope_bytes);
  const Stats s = rt.stats();
  CHECK(s.gc_count > 0);
  CHECK(static_cast<double>(s.gc_bytes_copied) <= 1.25 * allocated);
}

// A branch may return a raw Object*. When the merged heap is over
// budget, the join collects it and moves the object; the result
// channel's Local is a root, so the parent gets the new address.
PARMEM_TEST(join_budget_raw_return_relocated) {
  HierRuntime::Options opts;
  opts.workers = 2;
  opts.gc_min_budget = std::size_t{64} << 10;
  HierRuntime rt(opts);
  rt.run([](Ctx& ctx) {
    // A 100-cell list plus ~30 KiB of garbage: each branch fills its
    // 4 + 8 + 16 + 32 KiB starter chunks without reaching the budget
    // alone, and the two merged heaps are over it.
    auto branch = [](Ctx& c, std::int64_t tag, Object** before) {
      RootFrame f(c);
      Local head = f.local(nullptr);
      for (std::int64_t i = 0; i < 100; ++i) {
        Object* cell = c.alloc(1, 1);
        Ctx::init_i64(cell, 0, tag + i);
        Ctx::init_ptr(cell, 0, head.get());
        head.set(cell);
      }
      for (int i = 0; i < 1000; ++i) {
        Object* junk = c.alloc(0, 2);
        Ctx::init_i64(junk, 0, -1);
      }
      *before = head.get();
      return head.get();
    };
    auto sum = [](Object* list) {
      std::int64_t s = 0;
      for (Object* o = list; o != nullptr; o = Ctx::read_ptr(o, 0)) {
        s += Ctx::read_i64_imm(o, 0);
      }
      return s;
    };
    Object* before_a = nullptr;
    Object* before_b = nullptr;
    std::uint64_t gcs = ctx.runtime().stats().gc_count;
    auto [a, b] = HierRuntime::fork2(
        ctx, {}, [&](Ctx& c) { return branch(c, 1000, &before_a); },
        [&](Ctx& c) { return branch(c, 5000, &before_b); });
    CHECK(ctx.runtime().stats().gc_count > gcs);
    CHECK(a != before_a);
    CHECK(b != before_b);
    CHECK_EQ(sum(a), 100 * 1000 + 99 * 100 / 2);
    CHECK_EQ(sum(b), 100 * 5000 + 99 * 100 / 2);
    return 0;
  });
}

// An object too big for a regular chunk fills an oversized chunk of its
// own. A collection keeps it at its address, relinks its chunk into the
// heap, and forwards its pointer fields to the objects it moved.
template <class RT>
void oversized_survivor_keeps_address() {
  using C = typename RT::Ctx;
  RT rt;
  rt.run([&rt](C& ctx) {
    RootFrame frame(ctx);
    const std::uint32_t n = 100000;  // 800 KB of scalars
    Local big = frame.local(ctx.alloc(2, n));
    Local small = frame.local(ctx.alloc(0, 1));
    C::init_i64(small.get(), 0, 7);
    ctx.write_ptr(big.get(), 0, small.get());
    Object* hidden = ctx.alloc(0, 1);  // reachable only through big
    C::init_i64(hidden, 0, 9);
    ctx.write_ptr(big.get(), 1, hidden);
    C::write_i64(big.get(), n - 1, 1234);

    Object* const big_at = big.get();
    Object* const small_at = small.get();
    Object* const hidden_at = C::read_ptr(big_at, 1);
    const std::uint64_t copied = rt.stats().gc_bytes_copied;
    for (int round = 0; round < 2; ++round) {
      ctx.collect_now();
      CHECK(big.get() == big_at);
      CHECK(heap_of(big.get()) == ctx.leaf_heap());
      CHECK(ctx.leaf_heap()->survived_bytes() >= big_at->size());
    }
    CHECK(small.get() != small_at);
    CHECK(C::read_ptr(big.get(), 0) == small.get());
    Object* h = C::read_ptr(big.get(), 1);
    CHECK(h != hidden_at);
    CHECK_EQ(C::read_i64_imm(h, 0), 9);
    CHECK_EQ(C::read_i64_mut(big.get(), n - 1), 1234);
    // Only the two small objects were copied, twice each.
    CHECK(rt.stats().gc_bytes_copied - copied <= 4 * Object::size_bytes(0, 1));
    return 0;
  });
}

PARMEM_TEST(gc_oversized_survivor_keeps_address) {
  oversized_survivor_keeps_address<SeqRuntime>();
  oversized_survivor_keeps_address<HierRuntime>();
}

}  // namespace
}  // namespace parmem
