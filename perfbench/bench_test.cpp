// Tests of parmem-bench itself (make -f perfbench/Makefile test):
// determinism of the workloads per seed, agreement of the traced adapter
// with the untraced path, seed sensitivity of the generated inputs, and
// the pairing of hier and seq work in the untraced window.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/bench.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("    FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

struct Observed {
  std::int64_t checksum = 0;
  std::uint64_t forks = 0;
  std::uint64_t promotions = 0;
};

template <class RT>
Observed observe(RT& rt, const std::function<std::int64_t(RT&)>& op) {
  const parmem::Stats before = rt.stats();
  Observed o;
  o.checksum = op(rt);
  const parmem::Stats d = rt.stats() - before;
  o.forks = d.forks;
  o.promotions = d.promotions;
  return o;
}

Observed kernel_once(const Workload& w, std::uint64_t seed, bool traced) {
  HierRuntime::Options opts;
  opts.workers = w.workers;
  HierRuntime rt(opts);
  const bench::Sizes z = kernel_sizes(seed);
  if (!traced) {
    return observe<HierRuntime>(
        rt, [&](HierRuntime& r) { return kernel_op(r, w.kind, z); });
  }
  Tracer::get().reset();
  TracedHier t(rt);
  OpRec op;
  t.set_op(&op);
  SpanScope span(SpanKind::kOp, 0, &op);
  const Observed o = observe<TracedHier>(
      t, [&](TracedHier& r) { return kernel_op(r, w.kind, z); });
  span.close();
  check(Tracer::get().totals().forks == o.forks,
        std::string(w.name) + ": adapter fork count equals Stats.forks");
  return o;
}

void same(const Observed& a, const Observed& b, const std::string& what) {
  check(a.checksum == b.checksum, what + ": checksums equal");
  check(a.forks == b.forks, what + ": Stats.forks equal");
  check(a.promotions == b.promotions, what + ": Stats.promotions equal");
}

void test_same_seed_repeats() {
  for (const Workload& w : kWorkloads) {
    same(kernel_once(w, 7, false), kernel_once(w, 7, false), w.name);
  }
}

void test_traced_matches_untraced() {
  for (const Workload& w : kWorkloads) {
    same(kernel_once(w, 7, false), kernel_once(w, 7, true),
         std::string(w.name) + " traced");
  }
}

void test_seed_changes_inputs() {
  const Workload* bulk = find_workload("pure-bulk");
  check(kernel_once(*bulk, 1, false).checksum !=
            kernel_once(*bulk, 2, false).checksum,
        "pure-bulk: seeds 1 and 2 give different checksums");
}

bool all_finite_positive(const std::vector<double>& v) {
  for (double x : v) {
    if (!(x > 0.0 && std::isfinite(x))) {
      return false;
    }
  }
  return !v.empty();
}

void check_pairs(const Pairs& p, const std::string& what) {
  check(p.failed == 0, what + ": every hier and seq op matches");
  check(p.hier_ns.size() == p.attempted && p.seq_ns.size() == p.attempted,
        what + ": one seq op per hier op");
  check(p.cpu_ratio.size() == p.attempted &&
            p.wall_ratio.size() == p.attempted &&
            p.peak_rss.size() == p.attempted,
        what + ": ratios and peak RSS per op");
  check(all_finite_positive(p.cpu_ratio) &&
            all_finite_positive(p.wall_ratio) &&
            all_finite_positive(p.peak_rss),
        what + ": ratios and peaks are finite and positive");
}

void test_pairs_hier_with_seq() {
  const Workload* fib = find_workload("fork-fine");
  const bench::Sizes z = kernel_sizes(5);
  HierRuntime::Options opts;
  opts.workers = fib->workers;
  HierRuntime rt(opts);
  SeqRuntime seq;
  const Pairs k = kernel_pairs(rt, seq, fib->kind, z,
                               fib_closed_form(z.fib_n), 0.3,
                               fib->nominal_seq_s);
  check_pairs(k, "fork-fine pairs");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  const struct {
    const char* name;
    void (*fn)();
  } tests[] = {
      {"same_seed_repeats", test_same_seed_repeats},
      {"traced_matches_untraced", test_traced_matches_untraced},
      {"seed_changes_inputs", test_seed_changes_inputs},
      {"pairs_hier_with_seq", test_pairs_hier_with_seq},
  };
  for (const auto& t : tests) {
    const int before = g_failures;
    t.fn();
    std::printf("%s %s\n", g_failures == before ? "PASS" : "FAIL", t.name);
  }
  return g_failures == 0 ? 0 : 1;
}
