// Figure 8: measured costs of each memory operation under hierarchical
// heaps, by object class:
//   local    -- in the running task's own leaf heap, no copies
//   distant  -- in an ancestor heap, no copies
//   promoted -- has a forwarding chain (stale copy held by the task)
// and by operation: read immutable / read mutable / write non-pointer /
// non-promoting pointer write / promoting pointer write.
//
// The paper's qualitative matrix:  v = single instruction, vv = a few
// instructions, ~ = single-heap locking, ~~ = path locking + copying.
// This bench prints measured ns/op for every defined cell.
#include <cstdio>

#include "bench_common/harness.hpp"
#include "core/hier_runtime.hpp"

namespace parmem::bench {
namespace {

using Ctx = HierRuntime::Ctx;

constexpr std::int64_t kHotIters = 1 << 21;
constexpr std::int64_t kPromoteIters = 1 << 15;

double ns_per_op(double seconds, std::int64_t iters) {
  return seconds * 1e9 / static_cast<double>(iters);
}

struct CellTimes {
  double read_imm = -1;
  double read_mut = -1;
  double write_non = -1;
  double write_ptr_nonpromo = -1;
  double write_ptr_promo = -1;
};

// Measures ops against `obj` (rooted by the caller); `peer` is a pointer
// value legal to store into obj's pointer field without promotion.
CellTimes measure_cell(Ctx& ctx, Local obj, Local peer,
                       bool include_promoting) {
  CellTimes out;
  volatile std::int64_t sink = 0;
  {
    Timer t;
    std::int64_t acc = 0;
    for (std::int64_t i = 0; i < kHotIters; ++i) {
      acc += Ctx::read_i64_imm(obj.get(), 0);
    }
    sink = acc;
    out.read_imm = ns_per_op(t.seconds(), kHotIters);
  }
  {
    Timer t;
    std::int64_t acc = 0;
    for (std::int64_t i = 0; i < kHotIters; ++i) {
      acc += ctx.read_i64_mut(obj.get(), 0);
    }
    sink = acc;
    out.read_mut = ns_per_op(t.seconds(), kHotIters);
  }
  {
    Timer t;
    for (std::int64_t i = 0; i < kHotIters; ++i) {
      ctx.write_i64(obj.get(), 0, i);
    }
    out.write_non = ns_per_op(t.seconds(), kHotIters);
  }
  {
    Timer t;
    for (std::int64_t i = 0; i < kHotIters; ++i) {
      ctx.write_ptr(obj.get(), 0, peer.get());
    }
    out.write_ptr_nonpromo = ns_per_op(t.seconds(), kHotIters);
  }
  if (include_promoting) {
    Timer t;
    for (std::int64_t i = 0; i < kPromoteIters; ++i) {
      // A fresh local object written into the distant/promoted target:
      // every write promotes its (single-object) closure.
      Object* fresh = ctx.alloc(0, 1);
      Ctx::init_i64(fresh, 0, i);
      ctx.write_ptr(obj.get(), 0, fresh);
    }
    out.write_ptr_promo = ns_per_op(t.seconds(), kPromoteIters);
  }
  (void)sink;
  return out;
}

void print_row(const char* name, const CellTimes& c) {
  auto cell = [](double v) {
    if (v < 0) {
      std::printf(" %9s", "-");
    } else {
      std::printf(" %8.1f ", v);
    }
  };
  std::printf("%-9s", name);
  cell(c.read_imm);
  cell(c.read_mut);
  cell(c.write_non);
  cell(c.write_ptr_nonpromo);
  cell(c.write_ptr_promo);
  std::printf("\n");
}

}  // namespace
}  // namespace parmem::bench

int main(int argc, char** argv) {
  using namespace parmem::bench;
  using parmem::Local;
  using parmem::Object;
  using parmem::RootFrame;
  (void)parse_options(argc, argv);

  parmem::HierRuntime rt({.workers = 2});
  CellTimes local_times;
  CellTimes distant_times;
  CellTimes promoted_times;

  rt.run([&](Ctx& ctx) {
    RootFrame frame(ctx);
    // Parent-level (distant-to-be) objects at depth 0.
    Local distant = frame.local(ctx.alloc(1, 1));
    Local distant_peer = frame.local(ctx.alloc(0, 1));
    Local box = frame.local(ctx.alloc(1, 0));
    Ctx::init_i64(distant.get(), 0, 42);

    parmem::HierRuntime::fork2(
        ctx, {distant, distant_peer, box},
        [&](Ctx& c) {
          RootFrame f(c);
          // LOCAL: everything in the child's own leaf heap.
          Local local_obj = f.local(c.alloc(1, 1));
          Local local_peer = f.local(c.alloc(0, 1));
          Ctx::init_i64(local_obj.get(), 0, 7);
          local_times = measure_cell(c, local_obj, local_peer, false);

          // DISTANT: the parent's object; peer also lives at the parent
          // so plain pointer writes do not promote.
          distant_times = measure_cell(c, distant, distant_peer, true);

          // PROMOTED: a local object that acquired a forwarding chain by
          // being published to the parent's box; the child keeps the
          // stale reference.
          Local prom = f.local(c.alloc(1, 1));
          Ctx::init_i64(prom.get(), 0, 9);
          Object* stale = prom.get();
          c.write_ptr(box.get(), 0, prom.get());  // promotes
          Local stale_ref = f.local(stale);
          promoted_times = measure_cell(c, stale_ref, distant_peer, true);
          return std::int64_t{0};
        },
        [](Ctx&) { return std::int64_t{0}; });
    return 0;
  });

  std::printf("Figure 8: measured memory-operation costs (ns/op), "
              "hierarchical runtime\n\n");
  std::printf("%-9s %9s %9s %9s %9s %9s\n", "", "read-imm", "read-mut",
              "write-np", "wptr-nonp", "wptr-promo");
  print_rule(60);
  print_row("local", local_times);
  print_row("distant", distant_times);
  print_row("promoted", promoted_times);
  std::printf(
      "\npaper's qualitative matrix: local row = plain/few instructions; "
      "distant reads/non-ptr writes cheap, distant non-promoting ptr "
      "writes take one heap lock, promoting writes lock the target heap "
      "(the whole path only when the closure reaches a heap between the "
      "target and the leaf) and copy; promoted rows pay the findMaster "
      "barrier (immutable reads stay plain everywhere)\n");
  return 0;
}
