// Figure 11: execution times, overheads, speedups, and GC percentages
// of the imperative benchmarks on the sequential baseline, the
// stop-the-world baseline, and hierarchical heaps. These benchmarks use
// mutation and are "not implementable in Manticore" (Section 4.2) --
// our local-heap runtime CAN run them by promoting at escaping writes,
// which is exactly the O(input) promotion contrast tab_promotion_volume
// tabulates; the figure keeps the paper's three-system layout.
#include <cstdio>

#include "bench_common/harness.hpp"
#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"
#include "runtimes/seq_runtime.hpp"
#include "runtimes/stw_runtime.hpp"

namespace parmem::bench {
namespace {

struct ImpRow {
  const char* name;
  KernelOut (*seq)(SeqRuntime&, const Sizes&);
  KernelOut (*stw)(StwRuntime&, const Sizes&);
  KernelOut (*hier)(HierRuntime&, const Sizes&);
};

#define IMP_ROW(nm, fn) \
  ImpRow { nm, &fn<SeqRuntime>, &fn<StwRuntime>, &fn<HierRuntime> }

const ImpRow kRows[] = {
    IMP_ROW("msort", bench_msort),
    IMP_ROW("dedup", bench_dedup),
    IMP_ROW("tourney", bench_tourney),
    IMP_ROW("reachability", bench_reachability),
    IMP_ROW("usp", bench_usp),
    IMP_ROW("usp-tree", bench_usp_tree),
    IMP_ROW("multi-usp-tree", bench_multi_usp_tree),
};

template <class RT, class Fn>
Measurement run_system(const Options& opt, unsigned procs, Fn kernel) {
  typename RT::Options ro;
  ro.workers = procs;
  RT rt(ro);
  return measure(rt, opt.sizes, opt.runs,
                 [kernel](RT& r, const Sizes& z) { return kernel(r, z); });
}

}  // namespace
}  // namespace parmem::bench

int main(int argc, char** argv) {
  using namespace parmem::bench;
  Options opt = parse_options(argc, argv);
  const unsigned procs = opt.procs;

  std::printf(
      "Figure 11: imperative benchmarks (P=%u; medians of --runs runs; "
      "times in seconds)\n\n",
      procs);
  std::printf("%-15s | %7s %5s | %7s %5s %7s %5s %5s | "
              "%7s %5s %7s %5s %5s | %9s\n",
              "", "mlton", "", "spoonh", "", "", "", "", "parmem", "", "",
              "", "", "parmem");
  std::printf("%-15s | %7s %5s | %7s %5s %7s %5s %5s | "
              "%7s %5s %7s %5s %5s | %9s\n",
              "benchmark", "Ts", "GCs", "T1", "ovh", "Tp", "spd", "GCp",
              "T1", "ovh", "Tp", "spd", "GCp", "promoMB");
  print_rule(124);

  int mismatches = 0;
  for (const ImpRow& row : kRows) {
    if (!opt.selected(row.name)) {
      continue;
    }
    const Measurement seq = run_system<parmem::SeqRuntime>(opt, 1, row.seq);
    const double ts = seq.seconds;
    const Measurement stw1 = run_system<parmem::StwRuntime>(opt, 1, row.stw);
    const Measurement stwp =
        run_system<parmem::StwRuntime>(opt, procs, row.stw);
    const Measurement hier1 =
        run_system<parmem::HierRuntime>(opt, 1, row.hier);
    const Measurement hierp =
        run_system<parmem::HierRuntime>(opt, procs, row.hier);

    auto check = [&](const Measurement& m, const char* sys) {
      if (m.checksum != seq.checksum) {
        std::printf("!! checksum mismatch on %s/%s: %lld vs %lld\n",
                    row.name, sys, static_cast<long long>(m.checksum),
                    static_cast<long long>(seq.checksum));
        ++mismatches;
      }
    };
    check(stw1, "stw");
    check(stwp, "stw-p");
    check(hier1, "hier");
    check(hierp, "hier-p");

    std::printf(
        "%-15s | %7.3f %5.1f | %7.3f %5.2f %7.3f %5.2f %5.1f | "
        "%7.3f %5.2f %7.3f %5.2f %5.1f | %9.2f\n",
        row.name, ts, 100.0 * seq.gc_fraction(), stw1.seconds,
        stw1.seconds / ts, stwp.seconds, ts / stwp.seconds,
        100.0 * stwp.gc_fraction(procs), hier1.seconds, hier1.seconds / ts,
        hierp.seconds, ts / hierp.seconds,
        100.0 * hierp.gc_fraction(procs),
        static_cast<double>(hierp.stats.promoted_bytes) / (1024.0 * 1024.0));
    std::fflush(stdout);
  }
  std::printf(
      "\ncolumns as in Figure 10; promoMB = data promoted by "
      "mlton-parmem at P procs (usp-tree promotes per visitation run in "
      "a child heap; "
      "multi-usp-tree promotions can run in parallel)\n");
  if (mismatches != 0) {
    std::printf("!! %d checksum mismatch(es)\n", mismatches);
    return 1;
  }
  return 0;
}
