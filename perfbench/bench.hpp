// parmem-bench workloads: the op loops of the three kernel workloads and
// the probes that isolate a measured window.
// Shared by the benchmark driver (parmem_bench.cpp) and its tests
// (bench_test.cpp). Everything runs HierRuntime, directly or through
// the TracedHier adapter; SeqRuntime only computes reference results.
#pragma once

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common/serve_harness.hpp"  // serve::MemorySampler
#include "bench_common/workloads.hpp"
#include "core/hier_runtime.hpp"
#include "core/trace.hpp"
#include "perfbench/traced_hier.hpp"
#include "runtimes/runtime_api.hpp"
#include "runtimes/seq_runtime.hpp"

namespace perfbench {

namespace bench = parmem::bench;
namespace serve = parmem::bench::serve;
using parmem::SeqRuntime;

enum class Kind { kForkFine, kPureBulk, kMutateEntangle };

struct Workload {
  const char* name;
  Kind kind;
  unsigned workers;
  // Quantile of the per-op cpu_vs_seq reported as cpu_tail_vs_seq: the
  // highest that keeps at least ten samples beyond it in a run and
  // repeats between runs.
  double op_tail_q;
  // Untimed ops run once per set-up after building the runtime.
  int warmup_ops;
  // CPU time of one op on SeqRuntime on the host the benchmark was
  // defined on; see cpu_vs_seq().
  double nominal_seq_s;
};

inline constexpr Workload kWorkloads[] = {
    {"fork-fine", Kind::kForkFine, 1, 0.75, 3, 0.019},
    {"pure-bulk", Kind::kPureBulk, 2, 0.75, 3, 0.108},
    {"mutate-entangle", Kind::kMutateEntangle, 2, 0.75, 1, 0.106},
};

inline const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// ---- clocks and small statistics ------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Minor page faults of the process so far.
inline long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

// Linear-interpolated quantile of exact samples (0 when empty).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || v[lo] == v[hi]) {
    return v[lo];  // also keeps a run of failed ops (+inf) from giving NaN
  }
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// Quantile of the samples a histogram gained between two snapshots,
// interpolated linearly inside the bucket that holds it.
inline double hist_quantile(const parmem::Histogram& after,
                            const parmem::Histogram& before, double q) {
  const std::uint64_t n = after.count() - before.count();
  if (n == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(n);
  double cum = 0.0;
  for (unsigned i = 0; i < parmem::Histogram::kBuckets; ++i) {
    const double c = static_cast<double>(after.bucket_count(i) -
                                         before.bucket_count(i));
    if (c == 0.0) {
      continue;
    }
    if (cum + c >= rank) {
      const double lo =
          i == 0 ? 0.0
                 : static_cast<double>(parmem::Histogram::bucket_upper(i - 1)) +
                       1.0;
      const double hi =
          static_cast<double>(parmem::Histogram::bucket_upper(i));
      return lo + (hi - lo) * std::clamp((rank - cum) / c, 0.0, 1.0);
    }
    cum += c;
  }
  return static_cast<double>(after.max_ns());
}

// ---- host and process state -----------------------------------------------

inline std::size_t read_status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[160];
  const std::size_t klen = std::strlen(key);
  std::size_t out = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0) {
      out = static_cast<std::size_t>(std::strtoull(line + klen, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return out;
}

// Resets the process's peak RSS (VmHWM) to its current RSS.
inline bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

inline std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) {
    return "unknown";
  }
  char line[256];
  std::string out = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* p = std::strchr(line, ':');
      if (p != nullptr) {
        out = p + 1;
        out.erase(0, out.find_first_not_of(" \t"));
        out.erase(out.find_last_not_of(" \t\n") + 1);
      }
      break;
    }
  }
  std::fclose(f);
  return out;
}

// ---- kernel workloads -----------------------------------------------------

inline bench::Sizes kernel_sizes(std::uint64_t seed) {
  bench::Sizes z;
  z.seed = seed;
  z.fib_n = 30;
  z.seq_n = std::int64_t{1} << 22;
  z.seq_grain = 8192;
  z.usp_side = 192;
  return z;
}

inline std::int64_t combine(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) * 1000003u +
                                   static_cast<std::uint64_t>(b));
}

// One op of a kernel workload; its checksum.
template <class RT>
std::int64_t kernel_op(RT& rt, Kind kind, const bench::Sizes& z) {
  switch (kind) {
    case Kind::kForkFine:
      return bench::bench_fib(rt, z).checksum;
    case Kind::kPureBulk:
      return combine(bench::bench_map(rt, z).checksum,
                     bench::bench_filter(rt, z).checksum);
    case Kind::kMutateEntangle:
      return combine(bench::bench_usp_tree(rt, z).checksum,
                     bench::bench_multi_usp_tree(rt, z).checksum);
  }
  throw std::logic_error("kernel_op: unknown workload kind");
}

inline std::int64_t fib_closed_form(std::int64_t n) {
  std::int64_t a = 0;
  std::int64_t b = 1;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t t = a + b;
    a = b;
    b = t;
  }
  return a;
}

// Samples of a measured window: each op's service time from its start.
struct Samples {
  std::vector<double> service_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void merge(const Samples& o) {
    service_ns.insert(service_ns.end(), o.service_ns.begin(),
                      o.service_ns.end());
    attempted += o.attempted;
    failed += o.failed;
  }
};

// A failed op counts as a latency miss: it is recorded at +infinity.
inline constexpr double kMiss = HUGE_VAL;

// Worker time of traced ops: each op's wall time times the number of
// threads that ran its spans.
struct Coverage {
  double worker_ticks = 0.0;

  void add(const OpRec& op, std::uint64_t wall_ticks) {
    worker_ticks += static_cast<double>(wall_ticks) *
                    static_cast<double>(std::popcount(op.threads.load()));
  }
};

// Runs one op and checks it; a mismatch or an exception is a failure.
template <class Fn>
bool checked_op(Fn&& fn, std::int64_t ref, const char* what) {
  try {
    const std::int64_t ck = fn();
    if (ck == ref) {
      return true;
    }
    std::fprintf(stderr, "!! %s: checksum %lld, reference %lld\n", what,
                 static_cast<long long>(ck), static_cast<long long>(ref));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "!! %s: %s\n", what, e.what());
  }
  return false;
}

// Closed loop over kernel ops until `seconds` have passed (at least one
// op). With a TracedHier, every op gets an op span and its coverage.
template <class RT>
Samples kernel_window(RT& rt, Kind kind, const bench::Sizes& z,
                      std::int64_t ref, double seconds,
                      Coverage* cov = nullptr) {
  Samples s;
  const auto deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t t1;
  do {
    const std::int64_t t0 = now_ns();
    bool ok;
    if constexpr (std::is_same_v<RT, TracedHier>) {
      OpRec op;
      op.id = s.attempted + 1;
      rt.set_op(&op);
      SpanScope span(SpanKind::kOp, 0, &op);
      ok = checked_op([&] { return kernel_op(rt, kind, z); }, ref, "op");
      span.close();
      cov->add(op, span.end() - span.start());
    } else {
      ok = checked_op([&] { return kernel_op(rt, kind, z); }, ref, "op");
    }
    t1 = now_ns();
    ++s.attempted;
    s.service_ns.push_back(ok ? static_cast<double>(t1 - t0) : kMiss);
    s.failed += ok ? 0 : 1;
  } while (t1 < deadline);
  return s;
}

// ---- paired window ----------------------------------------------------------

// The untraced window runs each hier op next to the same op on
// SeqRuntime and a page-fault probe, and reports hier CPU time relative
// to them (cpu_vs_seq). The shared host that defined the benchmark
// changed speed up to threefold within minutes, so absolute times of the
// same code did not repeat between runs; reference work a few
// milliseconds away cancels most of that swing. Process CPU time also
// leaves out the time the host takes the VM's CPUs away, which stretched
// the 2-worker hier ops' wall time a third more than seq's.
struct Pairs {
  std::vector<double> cpu_ratio;   // cpu_vs_seq()
  std::vector<double> wall_ratio;  // wall time, hier / seq (notes only)
  std::vector<double> peak_rss;    // bytes, over the hier op only
  std::vector<double> hier_ns;     // wall time of each hier op
  std::vector<double> seq_ns;      // and of each seq op
  std::uint64_t attempted = 0;  // hier ops
  std::uint64_t failed = 0;     // hier ops that failed (seq failures too)
};

// Process CPU and wall time and page faults around a piece of work.
struct Clocks {
  std::int64_t wall = now_ns();
  double cpu = cpu_seconds();
  long faults = minor_faults();
};

// Page-fault cost of the defining host, CPU seconds per page (see
// page_fault_cost_s); it moved between 2 and 3 us there.
inline constexpr double kNominalFaultS = 2.5e-6;

// The host's current page-fault cost: CPU seconds per page to map,
// first-touch and unmap fresh anonymous memory.
inline double page_fault_cost_s() {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  constexpr std::size_t kPages = 2048;
  const double c0 = cpu_seconds();
  void* m = mmap(nullptr, kPages * page, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (m == MAP_FAILED) {
    throw std::runtime_error("page_fault_cost_s: mmap failed");
  }
  auto* p = static_cast<volatile char*>(m);
  for (std::size_t i = 0; i < kPages; ++i) {
    p[i * page] = 1;
  }
  munmap(m, kPages * page);
  return (cpu_seconds() - c0) / static_cast<double>(kPages);
}

// CPU time of hier work in units of the seq op, at the defining host's
// page-fault cost: the host moved compute speed (which seq measures) and
// page-fault cost (which the probe measures) independently, and hier
// work is part compute, part page faults that seq does not take. The
// faults' share, faults x the current cost, is taken out and priced at
// kNominalFaultS per fault; the rest is divided by the seq op.
inline double cpu_vs_seq(double hier_cpu, double faults, double seq_cpu,
                         double fault_cost, double nominal_seq_s) {
  return (hier_cpu - faults * fault_cost) / seq_cpu +
         faults * kNominalFaultS / nominal_seq_s;
}

inline double ratio_or_miss(double hier, double seq, bool ok) {
  return ok && seq > 0 ? hier / seq : kMiss;
}

// Median of v[i - r .. i + r], clipped to the ends of v.
inline double local_median(const std::vector<double>& v, std::size_t i,
                           std::size_t r) {
  const std::size_t lo = i < r ? 0 : i - r;
  const std::size_t hi = std::min(v.size(), i + r + 1);
  return median(std::vector<double>(v.begin() + static_cast<long>(lo),
                                    v.begin() + static_cast<long>(hi)));
}

// Kernel ops on `rt`, each followed by the same op on `seq` and a
// page-fault probe, until `seconds` have passed. A hier op is compared
// with the median seq op and probe of the five pairs around it, which
// follow the host's speed but not the jitter of single runs. Peak RSS is
// reset before each hier op and read after it, so seq's memory is not
// counted.
inline Pairs kernel_pairs(HierRuntime& rt, SeqRuntime& seq, Kind kind,
                          const bench::Sizes& z, std::int64_t ref,
                          double seconds, double nominal_seq_s) {
  Pairs p;
  std::vector<double> hier_cpu;
  std::vector<double> hier_faults;
  std::vector<double> seq_cpu;
  std::vector<double> fault_cost;
  std::vector<bool> ok;
  const auto deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  Clocks c2;
  do {
    reset_peak_rss();
    const Clocks c0;
    const bool hier_ok =
        checked_op([&] { return kernel_op(rt, kind, z); }, ref, "op");
    const Clocks c1;
    p.peak_rss.push_back(static_cast<double>(read_status_kb("VmHWM:")) *
                         1024.0);
    const bool seq_ok =
        checked_op([&] { return kernel_op(seq, kind, z); }, ref, "seq op");
    c2 = Clocks();
    fault_cost.push_back(page_fault_cost_s());
    ++p.attempted;
    p.failed += hier_ok && seq_ok ? 0 : 1;
    ok.push_back(hier_ok && seq_ok);
    p.hier_ns.push_back(static_cast<double>(c1.wall - c0.wall));
    p.seq_ns.push_back(static_cast<double>(c2.wall - c1.wall));
    hier_cpu.push_back(c1.cpu - c0.cpu);
    hier_faults.push_back(static_cast<double>(c1.faults - c0.faults));
    seq_cpu.push_back(c2.cpu - c1.cpu);
  } while (c2.wall < deadline);
  for (std::size_t i = 0; i < ok.size(); ++i) {
    p.cpu_ratio.push_back(
        ok[i] ? cpu_vs_seq(hier_cpu[i], hier_faults[i],
                           local_median(seq_cpu, i, 2),
                           local_median(fault_cost, i, 2), nominal_seq_s)
              : kMiss);
    p.wall_ratio.push_back(
        ratio_or_miss(p.hier_ns[i], local_median(p.seq_ns, i, 2), ok[i]));
  }
  return p;
}

// ---- window probe -----------------------------------------------------------

// Everything diffed or sampled around a traced window: wall time,
// runtime counters, the process-global pause histograms, the scheduler's
// idle wakeups, and RSS and live-byte samples from a background thread
// for the steady level.
class WindowProbe {
 public:
  explicit WindowProbe(HierRuntime& rt)
      : rt_(rt),
        before_(std::make_unique<parmem::trace::Snapshot>(
            parmem::trace::snapshot())),
        stats0_(rt.stats()),
        wake0_(rt.scheduler_idle_wakeups()),
        sampler_([&rt] { return rt.live_bytes(); },
                 std::chrono::milliseconds(10)),
        t0_(now_ns()) {}

  void finish() {
    wall_s_ = static_cast<double>(now_ns() - t0_) * 1e-9;
    sampler_.stop_and_join();
    after_ = std::make_unique<parmem::trace::Snapshot>(
        parmem::trace::snapshot());
    stats_ = rt_.stats() - stats0_;
    wakeups_ = rt_.scheduler_idle_wakeups() - wake0_;
  }

  double wall_s() const { return wall_s_; }
  const parmem::Stats& stats() const { return stats_; }
  std::uint64_t idle_wakeups() const { return wakeups_; }
  std::size_t steady_rss() const { return sampler_.steady_rss(); }
  std::size_t steady_live() const { return sampler_.steady_live(); }

  const parmem::Histogram& hist_after(parmem::trace::Ev e) const {
    return after_->by_kind[static_cast<unsigned>(e)];
  }
  const parmem::Histogram& hist_before(parmem::trace::Ev e) const {
    return before_->by_kind[static_cast<unsigned>(e)];
  }
  std::uint64_t count(parmem::trace::Ev e) const {
    return hist_after(e).count() - hist_before(e).count();
  }
  double sum_ns(parmem::trace::Ev e) const {
    return static_cast<double>(hist_after(e).sum_ns() -
                               hist_before(e).sum_ns());
  }
  double quantile_ns(parmem::trace::Ev e, double q) const {
    return hist_quantile(hist_after(e), hist_before(e), q);
  }

 private:
  HierRuntime& rt_;
  std::unique_ptr<parmem::trace::Snapshot> before_;
  std::unique_ptr<parmem::trace::Snapshot> after_;
  parmem::Stats stats0_;
  parmem::Stats stats_;
  std::uint64_t wake0_;
  std::uint64_t wakeups_ = 0;
  serve::MemorySampler sampler_;
  std::int64_t t0_;
  double wall_s_ = 0.0;
};

}  // namespace perfbench
