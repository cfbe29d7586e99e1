// Steady-state serving harness ("parmem-serve"): a fixed-duration (or
// fixed-count) driver that fires independent requests -- each a small
// fork-join task tree over per-session mutable state -- at a runtime
// through P parallel lanes, and measures what production cares about:
// throughput, per-request latency percentiles, peak + steady RSS, and
// a fragmentation ratio (RSS / live bytes).
//
// Methodology (fixed-time microbenchmark practice):
//   - start barrier: every lane spins until all lanes are staged, then
//     one lane stamps the shared clock (warmup end + deadline) and
//     releases the group, so no lane's requests are counted against a
//     window another lane has not entered yet;
//   - per-lane op counting: each lane owns a cache-line-padded slot
//     (ops, checksum, latency histogram) and touches nothing shared on
//     the request path -- no lock, no shared counter, no false sharing;
//   - warmup excluded: requests completing before the warmup stamp are
//     tallied separately and kept out of the histogram and throughput;
//   - end barrier: the measured window closes at the shared deadline;
//     each lane records its own last-completion stamp and the wave's
//     wall time is the max across lanes.
//
// Latency is recorded in a per-lane log-bucketed (HDR-style) histogram
// whose merge is exact -- shard buckets sum to the global percentile
// inputs, mirroring the ShardedStats exactness guarantee -- so p50/
// p95/p99/max come from all requests without a global lock anywhere.
//
// Memory is sampled by a background thread reading VmRSS from
// /proc/self/status plus the runtime's lock-free live_bytes() gauge
// (rtapi::snapshot_of), giving peak and steady-state RSS and the
// fragmentation ratio without stopping the world.
//
// Request determinism: a request's result is a pure function of
// (seed, request id). Fixed-count waves dispatch ids [0, N) exactly
// once through a shared atomic counter and sum per-request checksums
// commutatively, so the wave checksum is identical across lane counts
// AND across runtimes -- the cross-runtime agreement the serve driver
// and the determinism test assert. Fixed-duration waves process a
// timing-dependent prefix, so only their metrics are comparable.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common/harness.hpp"
#include "bench_common/workloads.hpp"
#include "core/histogram.hpp"
#include "core/stats.hpp"
#include "runtimes/runtime_api.hpp"

namespace parmem::bench::serve {

// ---- log-bucketed latency histogram ---------------------------------------
//
// The log-bucketed histogram born here now lives in core/histogram.hpp
// (the GC-pause / gate-stall histograms of core/trace.hpp use the same
// class); this alias keeps the harness surface and the exact
// element-wise merge semantics unchanged.
using LatencyHistogram = ::parmem::Histogram;

// ---- process RSS + runtime live-bytes sampling ----------------------------

inline std::size_t read_vm_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[128];
  std::size_t out = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      out = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10))
            << 10;  // kB -> bytes
      break;
    }
  }
  std::fclose(f);
  return out;
}

// Background sampler pairing VmRSS with the runtime's lock-free
// live-bytes gauge at each tick. Peak = max over samples; steady =
// median of the last half of the samples (the warmed-up tail).
class MemorySampler {
 public:
  struct Sample {
    std::size_t rss = 0;
    std::size_t live = 0;
  };

  MemorySampler(std::function<std::size_t()> live_fn,
                std::chrono::milliseconds tick)
      : live_fn_(std::move(live_fn)),
        tick_(tick),
        thread_([this] { loop(); }) {}

  MemorySampler(const MemorySampler&) = delete;
  MemorySampler& operator=(const MemorySampler&) = delete;
  ~MemorySampler() { stop_and_join(); }

  void stop_and_join() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // Only valid after stop_and_join().
  const std::vector<Sample>& samples() const { return samples_; }

  std::size_t peak_rss() const { return peak(&Sample::rss); }
  std::size_t peak_live() const { return peak(&Sample::live); }
  std::size_t steady_rss() const { return steady(&Sample::rss); }
  std::size_t steady_live() const { return steady(&Sample::live); }

 private:
  void loop() {
    while (!stop_.load(std::memory_order_acquire)) {
      samples_.push_back(Sample{read_vm_rss_bytes(), live_fn_()});
      std::this_thread::sleep_for(tick_);
    }
    samples_.push_back(Sample{read_vm_rss_bytes(), live_fn_()});
  }

  std::size_t peak(std::size_t Sample::* field) const {
    std::size_t m = 0;
    for (const Sample& s : samples_) {
      if (s.*field > m) {
        m = s.*field;
      }
    }
    return m;
  }

  std::size_t steady(std::size_t Sample::* field) const {
    if (samples_.empty()) {
      return 0;
    }
    std::vector<std::size_t> tail;
    tail.reserve(samples_.size() / 2 + 1);
    for (std::size_t i = samples_.size() / 2; i < samples_.size(); ++i) {
      tail.push_back(samples_[i].*field);
    }
    std::sort(tail.begin(), tail.end());
    return tail[tail.size() / 2];
  }

  std::function<std::size_t()> live_fn_;
  std::chrono::milliseconds tick_;
  std::atomic<bool> stop_{false};
  std::vector<Sample> samples_;  // sampler-thread only until joined
  std::thread thread_;
};

// ---- configuration / results ----------------------------------------------

struct ServeConfig {
  unsigned lanes = 1;  // parallel request lanes; clamped to workers()
  std::uint64_t seed = 42;
  // Per-session state sizes (per request): rope elements for the
  // map/reduce sessions, slot count of the dedup session table, vertex
  // count of the reachability session graph, and the fork grain inside
  // a request's task tree.
  std::int64_t session_elems = 1024;
  std::int64_t dedup_slots = 512;
  std::int64_t reach_verts = 256;
  std::int64_t grain = 256;
  // Exactly one of these drives the wave: fixed-duration mode measures
  // throughput/latency over `duration_s` (after `warmup_s`, which is
  // excluded); fixed-count mode dispatches ids [0, requests) exactly
  // once and yields a cross-runtime/cross-P comparable checksum.
  double duration_s = 0.0;
  double warmup_s = 0.2;
  std::uint64_t requests = 0;
  bool sample_memory = true;
  std::chrono::milliseconds sample_tick{20};
};

struct ServeResult {
  std::uint64_t requests = 0;  // completed inside the measured window
  std::uint64_t warmup_requests = 0;
  double seconds = 0.0;  // measured window (max across lanes)
  double throughput_rps = 0.0;
  std::int64_t checksum = 0;  // commutative sum over processed ids
  LatencyHistogram latency;   // exact merge of the per-lane shards
  Stats stats;                // runtime counter delta over the wave
  std::size_t peak_rss_bytes = 0;
  std::size_t steady_rss_bytes = 0;
  std::size_t peak_live_bytes = 0;
  std::size_t steady_live_bytes = 0;
  double frag_ratio = 0.0;  // steady RSS / steady live bytes
  unsigned lanes = 0;
};

// ---- request kernels -------------------------------------------------------
//
// Each request is an independent session: it allocates fresh mutable
// state in its own RootFrame, runs a small fork-join task tree over it
// (so every runtime's split/merge/promotion machinery is on the
// request path), and drops the whole session on return. Results are
// pure functions of the session seed. The three request types reuse
// the paper kernels' techniques: rope build + map/reduce queries,
// dedup-style hash-table inserts with escaping writes, and a
// reachability query over a session graph.

namespace detail {

// Rope session: build a session rope (forked), sum it, map it, sum the
// image -- map/reduce over per-session immutable-leaf state.
template <class RT>
std::int64_t request_rope(typename RT::Ctx& c, std::uint64_t s,
                          const ServeConfig& cfg) {
  using Ctx = typename RT::Ctx;
  RootFrame f(c);
  const std::int64_t n = cfg.session_elems;
  auto gen = [s](std::int64_t i) {
    return static_cast<std::int64_t>(
        wl::mix64(s + static_cast<std::uint64_t>(i)) & 0xffff);
  };
  Local rope = f.local(wl::rope_build<RT>(c, 0, n, cfg.grain, gen));
  const std::uint64_t sum1 = wl::rope_sum<RT>(c, rope, cfg.grain);
  Local mapped = f.local(wl::rope_map<RT>(
      c, rope, cfg.grain, [](std::int64_t v) { return v * 2 + 1; }));
  const std::uint64_t sum2 = wl::rope_sum<RT>(c, mapped, cfg.grain);
  return static_cast<std::int64_t>(sum1 * 31 + sum2);
}

// Dedup session: a session hash table split into two partitions; two
// forked branches insert the session's value stream, each filtering
// for its own hash partition -- escaping writes from child tasks into
// the request-frame table, disjoint across branches, deterministic
// within each (the dedup kernel's pattern at request scale).
template <class RT>
std::int64_t request_dedup(typename RT::Ctx& c, std::uint64_t s,
                           const ServeConfig& cfg) {
  using Ctx = typename RT::Ctx;
  RootFrame f(c);
  const std::int64_t region = cfg.dedup_slots / 2;
  const std::int64_t n = cfg.session_elems;
  Local table =
      f.local(c.alloc(0, static_cast<std::uint32_t>(2 * region)));  // zeroed
  auto insert_part = [&table, s, n, region](std::int64_t part) {
    Object* to = table.get();  // insertion loop allocates nothing
    const std::int64_t base = part * region;
    std::uint64_t uniques = 0;
    std::uint64_t sum = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t v =
          static_cast<std::int64_t>(
              wl::mix64(s + static_cast<std::uint64_t>(i)) %
              static_cast<std::uint64_t>(n / 2 + 1)) +
          1;
      const std::uint64_t h = wl::mix64(static_cast<std::uint64_t>(v) ^ s);
      if (static_cast<std::int64_t>(h & 1) != part) {
        continue;
      }
      std::int64_t j = static_cast<std::int64_t>(
          (h >> 1) % static_cast<std::uint64_t>(region));
      for (std::int64_t probes = 0; probes < region; ++probes) {
        const std::int64_t slot =
            Ctx::read_i64_mut(to, static_cast<std::uint32_t>(base + j));
        if (slot == 0) {
          Ctx::write_i64(to, static_cast<std::uint32_t>(base + j), v);
          ++uniques;
          sum += static_cast<std::uint64_t>(v);
          break;
        }
        if (slot == v) {
          break;  // duplicate
        }
        j = j + 1 < region ? j + 1 : 0;
      }
    }
    return std::pair<std::uint64_t, std::uint64_t>{uniques, sum};
  };
  auto [a, b] = RT::fork2(
      c, {table}, [&](typename RT::Ctx&) { return insert_part(0); },
      [&](typename RT::Ctx&) { return insert_part(1); });
  return static_cast<std::int64_t>(a.first * 1000003 + b.first * 999983 +
                                   a.second * 31 + b.second);
}

// Reachability session: build the session graph's in-edge array with
// two forked branches (escaping initialising writes into parent-frame
// arrays), then answer a level-synchronous reachability query from
// vertex 0 in place, mutating the session's visited array.
template <class RT>
std::int64_t request_reach(typename RT::Ctx& c, std::uint64_t s,
                           const ServeConfig& cfg) {
  using Ctx = typename RT::Ctx;
  RootFrame f(c);
  const std::int64_t n = cfg.reach_verts;
  Local esrc = f.local(
      c.alloc(0, static_cast<std::uint32_t>(n * wl::kReachDeg)));
  Local visited = f.local(c.alloc(0, static_cast<std::uint32_t>(n)));
  auto fill = [&esrc, &visited, s, n](std::int64_t lo, std::int64_t hi) {
    Object* eo = esrc.get();  // fill loop allocates nothing
    Object* dd = visited.get();
    std::int64_t e[wl::kReachDeg];
    for (std::int64_t v = lo; v < hi; ++v) {
      wl::reach_edge_sources(s, v, n, e);
      for (std::int64_t j = 0; j < wl::kReachDeg; ++j) {
        Ctx::write_i64(eo, static_cast<std::uint32_t>(v * wl::kReachDeg + j),
                       e[j]);
      }
      Ctx::write_i64(dd, static_cast<std::uint32_t>(v), -1);
    }
  };
  RT::fork2(
      c, {esrc, visited}, [&](typename RT::Ctx&) { fill(0, n / 2); },
      [&](typename RT::Ctx&) { fill(n / 2, n); });
  // The query: rounds settle levels breadth-first; a vertex joins
  // round d+1 iff one of its in-edge sources settled in round d, so
  // the sweep below is level-synchronous without a frontier list.
  Object* eo = esrc.get();
  Object* dd = visited.get();
  Ctx::write_i64(dd, 0, 0);
  for (std::int64_t d = 0;; ++d) {
    std::int64_t found = 0;
    for (std::int64_t v = 1; v < n; ++v) {
      if (Ctx::read_i64_mut(dd, static_cast<std::uint32_t>(v)) != -1) {
        continue;
      }
      for (std::int64_t j = 0; j < wl::kReachDeg; ++j) {
        const std::int64_t u = Ctx::read_i64_mut(
            eo, static_cast<std::uint32_t>(v * wl::kReachDeg + j));
        if (u >= 0 &&
            Ctx::read_i64_mut(dd, static_cast<std::uint32_t>(u)) == d) {
          Ctx::write_i64(dd, static_cast<std::uint32_t>(v), d + 1);
          ++found;
          break;
        }
      }
    }
    if (found == 0) {
      break;
    }
  }
  std::uint64_t sum = 0;
  std::uint64_t reached = 0;
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t lvl =
        Ctx::read_i64_mut(dd, static_cast<std::uint32_t>(v));
    if (lvl >= 0) {
      ++reached;
    }
    sum += static_cast<std::uint64_t>(lvl + 2) *
           static_cast<std::uint64_t>(v % 1021 + 1);
  }
  return static_cast<std::int64_t>(sum * 31 + reached);
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void spin_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace detail

// One request = one session; the result is a pure function of
// (cfg.seed, id), which is what makes fixed-count wave checksums
// comparable across runtimes and lane counts.
template <class RT>
std::int64_t serve_request(typename RT::Ctx& c, const ServeConfig& cfg,
                           std::uint64_t id) {
  const std::uint64_t s =
      wl::mix64(cfg.seed ^ (id * 0x9e3779b97f4a7c15ull + 1));
  switch (id % 3) {
    case 0:
      return detail::request_rope<RT>(c, s, cfg);
    case 1:
      return detail::request_dedup<RT>(c, s, cfg);
    default:
      return detail::request_reach<RT>(c, s, cfg);
  }
}

// Per-lane measurement slot: a full cache line (and then some -- the
// histogram rides along) per lane, touched by exactly one lane, so the
// request path shares nothing writable.
struct alignas(64) LaneStats {
  std::uint64_t ops = 0;         // post-warmup completions
  std::uint64_t warmup_ops = 0;  // completions inside the warmup
  std::uint64_t checksum = 0;    // commutative (wrapping) request sum
  std::int64_t end_ns = 0;       // this lane's last completion stamp
  LatencyHistogram hist;
};

namespace detail {

// Shared wave state: request dispatch counter, the start-barrier
// rendezvous, and the clock stamps one lane publishes for the group.
struct ServeShared {
  std::atomic<std::uint64_t> next_id{0};
  std::uint64_t max_requests = 0;  // 0 = unbounded (duration mode)
  unsigned lanes = 1;
  std::atomic<unsigned> staged{0};
  std::atomic<bool> go{false};
  std::atomic<std::int64_t> start_ns{0};
  std::atomic<std::int64_t> warmup_end_ns{0};
  std::atomic<std::int64_t> deadline_ns{0};
};

template <class RT>
void serve_lane(typename RT::Ctx& c, const ServeConfig& cfg, ServeShared& sh,
                LaneStats& lane) {
  // Start barrier: the lane that completes the rendezvous stamps the
  // clocks and releases the group. A staged lane polls a safepoint as
  // it spins: a stop can begin while it waits (hier's forking parent
  // polls its fork2-entry safepoint after the sibling lane is already
  // stealable), and that stop must be able to park the spinner.
  if (sh.staged.fetch_add(1, std::memory_order_acq_rel) + 1 == sh.lanes) {
    const std::int64_t now = now_ns();
    const double warmup =
        cfg.duration_s > 0.0 && cfg.warmup_s < cfg.duration_s / 4.0
            ? cfg.warmup_s
            : (cfg.duration_s > 0.0 ? cfg.duration_s / 4.0 : 0.0);
    sh.start_ns.store(now, std::memory_order_relaxed);
    sh.warmup_end_ns.store(
        cfg.duration_s > 0.0
            ? now + static_cast<std::int64_t>(warmup * 1e9)
            : now,
        std::memory_order_relaxed);
    sh.deadline_ns.store(
        cfg.duration_s > 0.0
            ? now + static_cast<std::int64_t>(cfg.duration_s * 1e9)
            : std::numeric_limits<std::int64_t>::max(),
        std::memory_order_relaxed);
    sh.go.store(true, std::memory_order_release);
  } else {
    while (!sh.go.load(std::memory_order_acquire)) {
      c.poll();
      spin_relax();
    }
  }
  const std::int64_t warmup_end =
      sh.warmup_end_ns.load(std::memory_order_relaxed);
  const std::int64_t deadline =
      sh.deadline_ns.load(std::memory_order_relaxed);
  lane.end_ns = sh.start_ns.load(std::memory_order_relaxed);

  for (;;) {
    const std::int64_t t0 = now_ns();
    if (t0 >= deadline) {
      break;
    }
    const std::uint64_t id = sh.next_id.fetch_add(1, std::memory_order_relaxed);
    if (sh.max_requests != 0 && id >= sh.max_requests) {
      break;
    }
    const std::int64_t ck = serve_request<RT>(c, cfg, id);
    const std::int64_t t1 = now_ns();
    lane.checksum += static_cast<std::uint64_t>(ck);
    lane.end_ns = t1;
    if (t1 <= warmup_end) {
      ++lane.warmup_ops;
    } else {
      ++lane.ops;
      lane.hist.record(static_cast<std::uint64_t>(t1 - t0));
    }
  }
}

template <class RT>
void serve_lanes_rec(typename RT::Ctx& c, const ServeConfig& cfg,
                     ServeShared& sh, LaneStats* lanes, unsigned lo,
                     unsigned hi) {
  if (hi - lo == 1) {
    serve_lane<RT>(c, cfg, sh, lanes[lo]);
    return;
  }
  const unsigned mid = lo + (hi - lo) / 2;
  RT::fork2(
      c, {},
      [&](typename RT::Ctx& cc) {
        serve_lanes_rec<RT>(cc, cfg, sh, lanes, lo, mid);
      },
      [&](typename RT::Ctx& cc) {
        serve_lanes_rec<RT>(cc, cfg, sh, lanes, mid, hi);
      });
}

}  // namespace detail

// Run one serve wave inside an already-running root task. The soak
// tests use this directly to fire several waves through ONE rt.run()
// (the long-running-server shape); serve_run below wraps it with the
// memory sampler and the counter diff for standalone measurement.
// Returns the wave's commutative checksum; per-lane detail lands in
// `lanes` when non-null (must have space for the lane count used).
template <class RT>
std::int64_t serve_wave_in_ctx(typename RT::Ctx& c, unsigned lanes,
                               const ServeConfig& cfg,
                               LaneStats* lane_stats) {
  detail::ServeShared sh;
  sh.max_requests = cfg.requests;
  sh.lanes = lanes;
  detail::serve_lanes_rec<RT>(c, cfg, sh, lane_stats, 0, lanes);
  std::uint64_t sum = 0;
  for (unsigned i = 0; i < lanes; ++i) {
    sum += lane_stats[i].checksum;
  }
  return static_cast<std::int64_t>(sum);
}

template <class RT>
ServeResult serve_run(RT& rt, const ServeConfig& cfg) {
  unsigned lanes = cfg.lanes == 0 ? rt.workers() : cfg.lanes;
  if (lanes > rt.workers()) {
    // The start barrier needs every lane running concurrently, so a
    // lane per worker is the hard cap.
    lanes = rt.workers();
  }
  std::vector<LaneStats> lane_stats(lanes);

  const StatsSnapshot before = rtapi::snapshot_of(rt);
  std::optional<MemorySampler> sampler;
  if (cfg.sample_memory) {
    sampler.emplace([&rt] { return rt.live_bytes(); }, cfg.sample_tick);
  }
  detail::ServeShared sh;
  sh.max_requests = cfg.requests;
  sh.lanes = lanes;
  rt.run([&](typename RT::Ctx& c) {
    detail::serve_lanes_rec<RT>(c, cfg, sh, lane_stats.data(), 0, lanes);
    return 0;
  });
  if (sampler) {
    sampler->stop_and_join();
  }
  const StatsSnapshot after = rtapi::snapshot_of(rt);

  ServeResult r;
  r.lanes = lanes;
  r.stats = after.interval_since(before);
  std::uint64_t checksum = 0;
  std::int64_t last_end = sh.start_ns.load(std::memory_order_relaxed);
  for (const LaneStats& l : lane_stats) {
    r.requests += l.ops;
    r.warmup_requests += l.warmup_ops;
    checksum += l.checksum;
    r.latency.merge(l.hist);
    if (l.end_ns > last_end) {
      last_end = l.end_ns;
    }
  }
  r.checksum = static_cast<std::int64_t>(checksum);
  const std::int64_t window_start =
      cfg.duration_s > 0.0 ? sh.warmup_end_ns.load(std::memory_order_relaxed)
                           : sh.start_ns.load(std::memory_order_relaxed);
  r.seconds = static_cast<double>(last_end - window_start) * 1e-9;
  if (r.seconds > 0.0) {
    r.throughput_rps = static_cast<double>(r.requests) / r.seconds;
  }
  if (sampler) {
    r.peak_rss_bytes = sampler->peak_rss();
    r.steady_rss_bytes = sampler->steady_rss();
    r.peak_live_bytes = sampler->peak_live();
    r.steady_live_bytes = sampler->steady_live();
    if (r.steady_live_bytes > 0) {
      r.frag_ratio = static_cast<double>(r.steady_rss_bytes) /
                     static_cast<double>(r.steady_live_bytes);
    }
  }
  return r;
}

}  // namespace parmem::bench::serve
