// Ablation: hierarchy-aware internal-heap collection
// (core/gc_internal.hpp, HierRuntime::Options::gc_internal_threshold).
//
// The promoting imperative kernels (usp-tree, multi-usp-tree) pump
// promoted masters AND merged-up stale originals into heaps whose
// owners sit blocked in fork2 for most of the run; without internal
// collection that garbage accumulates until the owner's own join-time
// or budget collection finally sees it. The threshold rows collect
// those busy heaps mid-run, trading GC work for peak occupancy.
//
// dedup and reachability are the CONTROLS: their escaping writes are
// scalar stores, so hierarchical heaps promote nothing, no heap ever
// crosses the threshold, and the rows must match the off row (same
// checksum, no internal collections, peak within noise).
//
// Checksums are verified identical across policies for every kernel --
// the differential guarantee the GC-stress harness enforces in ctest,
// re-checked here at bench sizes.
#include <cstdio>
#include <cstdlib>

#include "bench_common/harness.hpp"
#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"

namespace {

using namespace parmem;
using namespace parmem::bench;

struct Policy {
  const char* label;
  std::size_t threshold;
  unsigned team;
};

struct Kernel {
  const char* name;
  KernelOut (*fn)(HierRuntime&, const Sizes&);
  bool promoting;  // expected to show the peak reduction
};

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse_options(argc, argv);
  const unsigned procs = opt.procs;
  Sizes z = opt.sizes;
  if (!opt.quick && z.usp_side < 112) {
    // The signal is root-heap garbage ~ cells * object size: keep the
    // grid large enough that it dominates the transient leaf footprint.
    z.usp_side = 112;
  }

  const Policy policies[] = {
      {"off", 0, 0},
      {"64KiB", std::size_t{1} << 16, 0},
      {"64KiB-team", std::size_t{1} << 16, procs > 1 ? procs : 2},
  };
  const Kernel kernels[] = {
      {"usp-tree", &bench_usp_tree<HierRuntime>, true},
      {"multi-usp-tree", &bench_multi_usp_tree<HierRuntime>, true},
      {"dedup", &bench_dedup<HierRuntime>, false},
      {"reachability", &bench_reachability<HierRuntime>, false},
  };

  std::printf(
      "Ablation: internal-heap collection (gc_internal_threshold), P=%u\n"
      "(usp-tree rows promote into busy internal heaps; dedup and\n"
      " reachability promote nothing under hier and are the controls)\n\n",
      procs);
  std::printf("%-15s %-11s %9s %9s %8s %8s %9s %8s\n", "kernel", "policy",
              "Tp(s)", "peakMB", "promoMB", "igcs", "igcMB", "gc%");
  print_rule(84);

  bool checksums_ok = true;
  bool invariants_ok = true;
  int reduced = 0;
  for (const Kernel& k : kernels) {
    std::int64_t ref_checksum = 0;
    std::size_t off_peak = 0;
    std::uint64_t off_promoted = 0;
    std::uint64_t off_promotions = 0;
    for (const Policy& p : policies) {
      HierRuntime::Options ro;
      ro.workers = procs;
      ro.gc_internal_threshold = p.threshold;
      ro.gc_parallel_team = p.team;
      HierRuntime rt(ro);
      const Measurement m = measure(rt, z, opt.runs, k.fn);
      if (p.threshold == 0) {
        ref_checksum = m.checksum;
        off_peak = m.peak_bytes;
        off_promoted = m.stats.promoted_bytes;
        off_promotions = m.stats.promotions;
      } else {
        if (m.checksum != ref_checksum) {
          checksums_ok = false;
        }
        // The footer's claims are enforced, not just printed: internal
        // collection never promotes, and the zero-promotion controls
        // never trigger it. How many visits promote depends on which
        // right halves were stolen (an unstolen one runs in its
        // forker's heap), so the promoting rows compare the bytes
        // each promotion copied, which the kernel alone fixes.
        if (m.stats.promoted_bytes * off_promotions !=
            off_promoted * m.stats.promotions) {
          invariants_ok = false;
        }
        if (p.team == 0 && k.promoting && m.peak_bytes < off_peak) {
          ++reduced;
        }
      }
      if (!k.promoting &&
          (m.stats.internal_gc_count != 0 || m.stats.promotions != 0)) {
        invariants_ok = false;
      }
      std::printf(
          "%-15s %-11s %9.3f %9s %8s %8llu %9.2f %8s\n", k.name, p.label,
          m.seconds, fmt_mb(m.peak_bytes).c_str(),
          fmt_mb(m.stats.promoted_bytes).c_str(),
          static_cast<unsigned long long>(m.stats.internal_gc_count),
          static_cast<double>(m.stats.internal_gc_bytes) / 1048576.0,
          fmt_pct(m.gc_fraction(procs)).c_str());
      std::fflush(stdout);
    }
    print_rule(84);
  }

  std::printf(
      "\nchecksums across policies: %s\n"
      "promotion/control invariants: %s\n"
      "promoting kernels with peak reduction (threshold vs off): %d of 2\n"
      "expected shape: the usp-tree rows trade internal-GC work for a\n"
      "lower peak (the busy root/branch heaps are collected mid-run\n"
      "instead of accumulating promoted masters and merged stale\n"
      "originals); the control rows run zero internal collections and\n"
      "match the off rows; every promotion copies the same bytes under\n"
      "every policy (internal collection never promotes)\n",
      checksums_ok ? "IDENTICAL" : "MISMATCH",
      invariants_ok ? "HELD" : "VIOLATED", reduced);
  if (!checksums_ok || !invariants_ok) {
    return 1;
  }
  return 0;
}
