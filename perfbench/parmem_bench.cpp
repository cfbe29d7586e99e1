// parmem-bench: the benchmark of the hierarchical runtime (HierRuntime).
//
//   parmem_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--commit ID] [--out-dir DIR]
//
// Workloads (perfbench/README.md says why each was chosen):
//   fork-fine        fib n=30 on 1 worker: per-fork heap cost, no GC
//   pure-bulk        rope map then filter over 2^22 elements, 2 workers
//   mutate-entangle  usp-tree then multi-usp-tree, side 192, 2 workers
//
// --trace 0 measures the end-to-end metrics with tracing off: each hier
// op is followed by the same op on SeqRuntime, and the timing metrics are
// hier/seq ratios of process CPU time, which a change of host speed moves
// far less than it moves times (perfbench/README.md).
// --trace 1 runs an untraced window, then a traced one through TracedHier
// (perfbench/traced_hier.hpp), and reports the per-layer metrics. Every
// op is checked against a SeqRuntime reference computed during set-up;
// the last stdout line is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is 1 when any check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.hpp"

extern char** environ;

namespace perfbench {
namespace {

using parmem::trace::Ev;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed above the metric table
};

constexpr double kMiB = 1024.0 * 1024.0;
// Timed set-ups per untraced run; setup_s uses their median. One more,
// untimed, comes first: the first set-up in a process pays for first
// touches of memory, whose cost on a VM depends on what the host ran
// before (several-fold between runs of the same code), not on the program.
constexpr int kSetups = 7;

// Runtime knobs read from the environment (stress modes, budgets, fault
// injection, profiling, trace and stats export) would change what is
// measured: drop every PARMEM_* variable before a runtime is built.
void clear_runtime_knobs() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PARMEM_", 7) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const std::string& n : names) {
    std::fprintf(stderr, "parmem-bench: ignoring %s\n", n.c_str());
    unsetenv(n.c_str());
  }
}

std::string dist_note(const char* what, const std::vector<double>& v,
                      double scale) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%s: p50 %.6g p90 %.6g p95 %.6g p99 %.6g max %.6g", what,
                quantile(v, 0.5) * scale, quantile(v, 0.9) * scale,
                quantile(v, 0.95) * scale, quantile(v, 0.99) * scale,
                quantile(v, 1.0) * scale);
  return buf;
}


std::string tail_note(const std::vector<double>& v, double q) {
  const double beyond = static_cast<double>(v.size()) * (1.0 - q);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "cpu tail = p%g of %zu per-op ratios (%.0f beyond)%s",
                q * 100.0, v.size(), beyond,
                beyond < 10 ? "  !! fewer than 10 beyond" : "");
  return buf;
}

void end_to_end(Result& r, const Workload& w, const std::vector<double>& setup,
                const std::vector<double>& raw_setup, const Pairs& p) {
  r.metrics = {
      {"setup_s", median(setup), "s"},
      {"cpu_p50_vs_seq", quantile(p.cpu_ratio, 0.5), "x"},
      {"cpu_tail_vs_seq", quantile(p.cpu_ratio, w.op_tail_q), "x"},
      {"peak_rss_mb", quantile(p.peak_rss, 0.5) / kMiB, "MB"},
  };
  const double attempted = static_cast<double>(r.attempted);
  r.notes.push_back(
      "fail_share = " +
      std::to_string(attempted > 0 ? static_cast<double>(r.failed) / attempted
                                   : 0.0));
  r.notes.push_back(tail_note(p.cpu_ratio, w.op_tail_q));
  r.notes.push_back(dist_note("cpu_vs_seq", p.cpu_ratio, 1.0));
  r.notes.push_back(dist_note("hier/seq wall", p.wall_ratio, 1.0));
  r.notes.push_back(dist_note("hier op us", p.hier_ns, 1e-3));
  r.notes.push_back(dist_note("seq op us", p.seq_ns, 1e-3));
  char buf[160];
  std::snprintf(buf, sizeof buf, "set-up cpu s, uncalibrated: median %.4g",
                median(raw_setup));
  r.notes.push_back(buf);
}

// Per-layer metrics of a traced window. `base` is the untraced window
// run just before it on the same runtime.
void per_layer(Result& r, const Samples& traced, const Samples& base,
               const WindowProbe& p, const Coverage& cov, double seq_op_us,
               HierRuntime& rt) {
  const Totals t = Tracer::get().totals();
  const double npt = Tracer::get().ns_per_tick();
  const double ops = static_cast<double>(std::max<std::uint64_t>(
      traced.attempted, 1));
  auto per_op = [ops](double v) { return v / ops; };
  auto us_per_op = [ops](double ns) { return ns * 1e-3 / ops; };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const parmem::Stats& s = p.stats();
  const double leaf_ns = p.sum_ns(Ev::kGcLeaf);
  const double join_ns = p.sum_ns(Ev::kGcJoin);
  const double promo_ns = p.sum_ns(Ev::kPromotion);
  const double alloc_ns = static_cast<double>(t.alloc_ticks) * npt;
  const double slow_allocs =
      static_cast<double>(t.alloc_over_1us) -
      static_cast<double>(p.count(Ev::kGcLeaf));
  const double traced_p50 = quantile(traced.service_ns, 0.5);
  const double base_p50 = quantile(base.service_ns, 0.5);
  r.metrics = {
      {"sched.forks", per_op(static_cast<double>(s.forks)), "count"},
      {"sched.fork_self_us",
       us_per_op(std::max(0.0, static_cast<double>(t.fork_self_ticks) * npt -
                                   join_ns)),
       "us"},
      {"sched.join_wait_us",
       us_per_op(static_cast<double>(t.join_wait_ticks) * npt), "us"},
      {"sched.steal_share",
       ratio(static_cast<double>(t.steals), static_cast<double>(t.forks)),
       "ratio"},
      {"sched.idle_wakeups_per_s",
       ratio(static_cast<double>(p.idle_wakeups()), p.wall_s()), "1/s"},
      {"heap.allocs", per_op(static_cast<double>(t.allocs)), "count"},
      {"heap.alloc_bytes", per_op(static_cast<double>(t.alloc_bytes)), "B"},
      {"heap.alloc_us", us_per_op(std::max(0.0, alloc_ns - leaf_ns)), "us"},
      {"heap.alloc_slow", per_op(std::max(0.0, slow_allocs)), "count"},
      {"heap.peak_mb", static_cast<double>(rt.peak_bytes()) / kMiB, "MB"},
      {"heap.live_mb", static_cast<double>(p.steady_live()) / kMiB, "MB"},
      {"heap.rss_over_live",
       ratio(static_cast<double>(p.steady_rss()),
             static_cast<double>(p.steady_live())),
       "ratio"},
      {"barrier.reads_mut", per_op(static_cast<double>(t.reads_mut)),
       "count"},
      {"barrier.writes_i64", per_op(static_cast<double>(t.writes_i64)),
       "count"},
      {"barrier.writes_ptr", per_op(static_cast<double>(t.writes_ptr)),
       "count"},
      {"barrier.write_ptr_us",
       us_per_op(std::max(
           0.0, static_cast<double>(t.write_ptr_ticks) * npt - promo_ns)),
       "us"},
      {"promote.count", per_op(static_cast<double>(s.promotions)), "count"},
      {"promote.bytes", per_op(static_cast<double>(s.promoted_bytes)), "B"},
      {"promote.per_write_ptr",
       ratio(static_cast<double>(s.promotions),
             static_cast<double>(t.writes_ptr)),
       "ratio"},
      {"promote.us", us_per_op(promo_ns), "us"},
      {"gc.leaf.count", per_op(static_cast<double>(p.count(Ev::kGcLeaf))),
       "count"},
      {"gc.leaf.pause_us", us_per_op(leaf_ns), "us"},
      {"gc.leaf.pause_tail_us", p.quantile_ns(Ev::kGcLeaf, 0.99) * 1e-3,
       "us"},
      {"gc.join.count", per_op(static_cast<double>(p.count(Ev::kGcJoin))),
       "count"},
      {"gc.join.pause_us", us_per_op(join_ns), "us"},
      {"gc.join.pause_tail_us", p.quantile_ns(Ev::kGcJoin, 0.99) * 1e-3,
       "us"},
      {"gc.copied_bytes", per_op(static_cast<double>(s.gc_bytes_copied)),
       "B"},
      {"gc.survival",
       ratio(static_cast<double>(s.gc_bytes_copied),
             static_cast<double>(t.alloc_bytes)),
       "ratio"},
      {"gc.gate_stall_us", us_per_op(p.sum_ns(Ev::kGateStall)), "us"},
      {"trace.attributed_share",
       ratio(static_cast<double>(t.fork_self_ticks + t.join_wait_ticks +
                                 t.alloc_ticks + t.write_ptr_ticks),
             cov.worker_ticks),
       "ratio"},
      {"trace.overhead_share", ratio(traced_p50 - base_p50, base_p50),
       "ratio"},
      {"ref.seq_op_us", seq_op_us, "us"},
  };
  if (t.forks != s.forks) {
    r.notes.push_back("!! adapter counted " + std::to_string(t.forks) +
                      " forks, runtime " + std::to_string(s.forks));
    r.correct = false;
  }
}

void write_spans(Result& r, const std::string& out_dir, const Workload& w,
                 std::uint64_t seed) {
  const std::string path = out_dir + "/spans-" + w.name + "-seed" +
                           std::to_string(seed) + ".csv";
  const long n = Tracer::get().write_csv(path);
  r.notes.push_back(n < 0 ? "!! cannot write " + path
                          : "spans: " + std::to_string(n) + " in " + path);
}

void count(Result& r, const Samples& s) {
  r.attempted += s.attempted;
  r.failed += s.failed;
}

Result run_kernel(const Workload& w, std::uint64_t seed, double seconds,
                  bool trace, const std::string& out_dir) {
  Result r;
  const bench::Sizes z = kernel_sizes(seed);
  SeqRuntime seq;

  // Reference result and time on SeqRuntime (not part of set-up time).
  const std::int64_t t0 = now_ns();
  const std::int64_t ref = kernel_op(seq, w.kind, z);
  const double seq_op_us = static_cast<double>(now_ns() - t0) * 1e-3;
  if (w.kind == Kind::kForkFine && ref != fib_closed_form(z.fib_n)) {
    r.notes.push_back("!! seq fib differs from the closed form");
    r.correct = false;
  }

  // Set-up: build the runtime and warm it up, several times, each after a
  // seq op and a page-fault probe for calibration; the last runtime is
  // measured. Set-up -1 is not timed (see kSetups). setup_s is the
  // median set-up CPU time in CPU seconds of the defining host: the
  // compute share scaled by the seq op against Workload::nominal_seq_s,
  // the page faults priced at kNominalFaultS (see cpu_vs_seq).
  std::unique_ptr<HierRuntime> rt;
  std::vector<double> setups;
  std::vector<double> raw_setups;
  for (int rep = -1; rep < (trace ? 1 : kSetups); ++rep) {
    rt.reset();
    const double c0 = cpu_seconds();
    r.correct &= checked_op([&] { return kernel_op(seq, w.kind, z); }, ref,
                            "seq calibration op");
    const double seq_cpu = cpu_seconds() - c0;
    const double fault_cost = page_fault_cost_s();
    const Clocks s0;
    HierRuntime::Options o;
    o.workers = w.workers;
    rt = std::make_unique<HierRuntime>(o);
    for (int i = 0; i < w.warmup_ops; ++i) {
      r.correct &= checked_op([&] { return kernel_op(*rt, w.kind, z); }, ref,
                              "warm-up op");
    }
    if (rep >= 0) {
      const Clocks s1;
      raw_setups.push_back(s1.cpu - s0.cpu);
      setups.push_back(cpu_vs_seq(s1.cpu - s0.cpu,
                                  static_cast<double>(s1.faults - s0.faults),
                                  seq_cpu, fault_cost, w.nominal_seq_s) *
                       w.nominal_seq_s);
    }
  }

  if (!trace) {
    const Pairs p =
        kernel_pairs(*rt, seq, w.kind, z, ref, seconds, w.nominal_seq_s);
    r.attempted += p.attempted;
    r.failed += p.failed;
    end_to_end(r, w, setups, raw_setups, p);
  } else {
    const Samples base = kernel_window(*rt, w.kind, z, ref, seconds / 2);
    Tracer::get().reset();
    parmem::trace::enable();  // promotion timing records only when on
    TracedHier traced(*rt);
    Coverage cov;
    WindowProbe p(*rt);
    const Samples s =
        kernel_window(traced, w.kind, z, ref, seconds / 2, &cov);
    p.finish();
    parmem::trace::disable();
    count(r, base);
    count(r, s);
    per_layer(r, s, base, p, cov, seq_op_us, *rt);
    write_spans(r, out_dir, w, seed);
  }
  r.correct &= r.failed == 0;
  return r;
}

void print_number(double v) {
  if (!std::isfinite(v)) {
    v = v > 0 ? 1e300 : 0.0;  // a failed op's latency miss
  }
  std::printf("%.10g", v);
}

void print_result(const Result& r) {
  for (const std::string& n : r.notes) {
    std::printf("  %s\n", n.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                r.metrics[i].name.c_str());
    print_number(r.metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", r.metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "parmem-bench: %s\nusage: parmem_bench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--commit ID] "
               "[--out-dir DIR]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string commit = "unknown";
  std::string out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      trace = std::atoi(v);
    } else if (k == "--commit") {
      commit = v;
    } else if (k == "--out-dir") {
      out_dir = v;
    } else {
      return usage(("unknown option " + k).c_str());
    }
  }
  if (argc % 2 != 1) {
    return usage("options take one value each");
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!(seconds > 0.0 && seconds <= 600.0) || (trace != 0 && trace != 1)) {
    return usage("--seconds must be in (0, 600] and --trace 0 or 1");
  }
  clear_runtime_knobs();

  std::printf("parmem-bench workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name, static_cast<unsigned long long>(seed), seconds, trace);
  std::printf("host: nproc=%u cpu=\"%s\" compiler=\"g++ %s\" commit=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              __VERSION__, commit.c_str());
  std::fflush(stdout);

  const Result r = run_kernel(*w, seed, seconds, trace == 1, out_dir);
  print_result(r);
  return r.correct ? 0 : 1;
}
