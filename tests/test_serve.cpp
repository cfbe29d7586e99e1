// Serving-harness tests (bench_common/serve_harness.hpp):
//
//   * fixed-count determinism: the same (seed, count) wave produces
//     the same commutative checksum on every runtime and at 1 vs 2
//     lanes -- the property that makes the serve driver's cross-
//     runtime verification meaningful;
//   * histogram merge exactness: per-lane latency shards sum to the
//     global histogram bucket-for-bucket (mirroring the ShardedStats
//     exactness test), so lock-free per-lane recording loses nothing;
//   * long-run accounting soaks: several request waves through ONE
//     rt.run() -- the long-running-server shape -- must reach a live-
//     bytes steady state on ALL FOUR runtimes (GC budgets kick in;
//     memory does not grow monotonically across waves). The local-heap
//     runtime needs its gc_global_threshold for this: without it the
//     global promotion sink grows every wave and is reclaimed only at
//     run() exit;
//   * scheduler quiescence: an idle pool must be near-silent. After a
//     serve burst, parked workers may time out their park backstop at
//     most once per kParkBackstop, so a sub-backstop idle window sees
//     ~zero timed-out wakeups (the old 10 ms backstop woke every
//     worker ~100x/s forever).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common/serve_harness.hpp"
#include "core/hier_runtime.hpp"
#include "runtimes/localheap_runtime.hpp"
#include "runtimes/seq_runtime.hpp"
#include "runtimes/stw_runtime.hpp"
#include "tests/test_util.hpp"

// ASan/TSan instrumentation inflates and retains RSS unpredictably, so
// the process-level RSS assertions are compiled out under them; the
// runtime-level live-bytes assertions always run.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PARMEM_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PARMEM_UNDER_SANITIZER 1
#endif
#endif

namespace {

using namespace parmem;
using namespace parmem::bench;

serve::ServeConfig tiny_serve_config() {
  serve::ServeConfig cfg;
  cfg.seed = 1234;
  cfg.session_elems = 240;
  cfg.dedup_slots = 128;
  cfg.reach_verts = 96;
  cfg.grain = 96;
  cfg.requests = 60;  // fixed-count mode
  cfg.sample_memory = false;
  return cfg;
}

template <class RT>
std::int64_t serve_checksum(unsigned workers, const serve::ServeConfig& cfg) {
  typename RT::Options o;
  o.workers = workers;
  RT rt(o);
  return serve::serve_run(rt, cfg).checksum;
}

PARMEM_TEST(serve_deterministic_across_runtimes_and_lanes) {
  const serve::ServeConfig cfg = tiny_serve_config();
  const std::int64_t ref = serve_checksum<SeqRuntime>(1, cfg);
  CHECK(ref != 0);
  for (unsigned w : {1u, 2u}) {
    CHECK_EQ(serve_checksum<StwRuntime>(w, cfg), ref);
    CHECK_EQ(serve_checksum<LhRuntime>(w, cfg), ref);
    CHECK_EQ(serve_checksum<HierRuntime>(w, cfg), ref);
  }
  // The hier serve row runs with a join threshold (the serve driver
  // sets one); the checksum must not depend on that knob.
  HierRuntime::Options o;
  o.workers = 2;
  o.gc_join_threshold = std::size_t{64} << 10;
  HierRuntime rt(o);
  CHECK_EQ(serve::serve_run(rt, cfg).checksum, ref);
}

PARMEM_TEST(serve_histogram_merge_is_exact) {
  // Four per-lane shards vs one reference fed the same stream: counts,
  // sums, maxima, every bucket, and every percentile must agree
  // exactly -- merging is element-wise addition, nothing is resampled.
  serve::LatencyHistogram shards[4];
  serve::LatencyHistogram reference;
  serve::LatencyHistogram merged;
  std::uint64_t x = 99;
  for (int i = 0; i < 40000; ++i) {
    x = wl::mix64(x);
    // Spread samples across six decades so every bucket regime (exact
    // small values, each log-linear band) is exercised.
    const std::uint64_t v = x % (std::uint64_t{1} << (4 + 6 * (i % 10)));
    shards[i % 4].record(v);
    reference.record(v);
  }
  for (const serve::LatencyHistogram& s : shards) {
    merged.merge(s);
  }
  CHECK_EQ(merged.count(), reference.count());
  CHECK_EQ(merged.max_ns(), reference.max_ns());
  CHECK(merged.mean_ns() == reference.mean_ns());
  for (unsigned b = 0; b < serve::LatencyHistogram::kBuckets; ++b) {
    CHECK_EQ(merged.bucket_count(b), reference.bucket_count(b));
  }
  for (double q : {0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    CHECK_EQ(merged.percentile_ns(q), reference.percentile_ns(q));
  }
}

PARMEM_TEST(serve_histogram_buckets_bound_values) {
  using H = serve::LatencyHistogram;
  std::uint64_t x = 7;
  for (int i = 0; i < 20000; ++i) {
    x = wl::mix64(x);
    const std::uint64_t v = x >> (x % 60);
    const unsigned b = H::bucket_of(v);
    CHECK(b < H::kBuckets);
    CHECK(H::bucket_upper(b) >= v);  // conservative upper bound
    if (b > 0) {
      CHECK(H::bucket_upper(b - 1) < v);  // tightest such bucket
    }
  }
  // A single sample's percentile is exactly its value when the value
  // is the histogram maximum (the clamp keeps bucket rounding from
  // overshooting the observed max).
  H h;
  h.record(12345);
  CHECK_EQ(h.percentile_ns(0.5), 12345u);
  CHECK_EQ(h.percentile_ns(1.0), 12345u);
}

// ---- long-run accounting soaks --------------------------------------------

constexpr int kSoakWaves = 6;

serve::ServeConfig soak_wave_config() {
  serve::ServeConfig cfg;
  cfg.seed = 77;
  cfg.session_elems = 512;
  cfg.dedup_slots = 256;
  cfg.reach_verts = 128;
  cfg.grain = 256;
  cfg.requests = 120;
  return cfg;
}

template <class RT>
void run_soak_waves(RT& rt, unsigned lanes, std::vector<std::size_t>* live,
                    std::vector<std::size_t>* rss) {
  const serve::ServeConfig cfg = soak_wave_config();
  rt.run([&](typename RT::Ctx& c) {
    for (int w = 0; w < kSoakWaves; ++w) {
      std::vector<serve::LaneStats> ls(lanes);
      serve::serve_wave_in_ctx<RT>(c, lanes, cfg, ls.data());
      live->push_back(rt.live_bytes());
      rss->push_back(serve::read_vm_rss_bytes());
    }
    return 0;
  });
}

void check_soak_steady_state(const std::vector<std::size_t>& live,
                             const std::vector<std::size_t>& rss) {
  // Live bytes at wave boundaries must reach a steady state: the
  // later waves may not keep growing past the early ones (collection
  // budgets bound garbage; chunk doubling settles). 2x + slack
  // tolerates budget-growth ramping without admitting a real leak,
  // which grows per wave forever.
  std::size_t early = 0;
  std::size_t late = 0;
  for (int w = 0; w < kSoakWaves; ++w) {
    std::size_t& half = w < kSoakWaves / 2 ? early : late;
    half = std::max(half, live[static_cast<std::size_t>(w)]);
  }
  CHECK(late <= early * 2 + (std::size_t{2} << 20));
#if !defined(PARMEM_UNDER_SANITIZER)
  // Process RSS between the mid and last wave boundary must be flat to
  // within allocator noise -- a monotonic climb here is exactly the
  // long-run accounting bug this soak exists to catch.
  CHECK(rss.back() <= rss[kSoakWaves / 2 - 1] + (std::size_t{12} << 20));
#else
  (void)rss;
#endif
}

PARMEM_TEST(serve_soak_seq_reaches_steady_state) {
  SeqRuntime::Options o;
  o.gc_min_budget = std::size_t{1} << 20;
  SeqRuntime rt(o);
  std::vector<std::size_t> live;
  std::vector<std::size_t> rss;
  run_soak_waves(rt, 1, &live, &rss);
  check_soak_steady_state(live, rss);
}

PARMEM_TEST(serve_soak_stw_reaches_steady_state) {
  StwRuntime::Options o;
  o.workers = 2;
  o.gc_min_budget = std::size_t{1} << 20;
  StwRuntime rt(o);
  std::vector<std::size_t> live;
  std::vector<std::size_t> rss;
  run_soak_waves(rt, 2, &live, &rss);
  check_soak_steady_state(live, rss);
}

PARMEM_TEST(serve_soak_hier_reaches_steady_state) {
  HierRuntime::Options o;
  o.workers = 2;
  o.gc_min_budget = std::size_t{1} << 20;
  // Without join collections the root heap would accrue each wave's
  // merged garbage forever (the root task itself never allocates, so
  // its own collection never triggers); the join threshold is the
  // serving knob that bounds it -- and its soundness is exactly what
  // gc_join_grandparent_publish_survives pins down.
  o.gc_join_threshold = std::size_t{256} << 10;
  HierRuntime rt(o);
  std::vector<std::size_t> live;
  std::vector<std::size_t> rss;
  run_soak_waves(rt, 2, &live, &rss);
  check_soak_steady_state(live, rss);
}

// A task spinning on another task's progress -- the serve harness's
// start barrier -- must poll a safepoint as it spins (ctx.poll()), or a
// stop begun meanwhile waits on the spinner forever while the spinner
// waits on a task the stop holds back. Here branch b spins until branch
// a is done, and a's allocation slow paths drive stops (GC stress)
// while b spins.
PARMEM_TEST(serve_barrier_spinner_polls_through_a_stop) {
  HierRuntime::Options o;
  o.workers = 2;
  o.gc_stress = true;
  HierRuntime rt(o);
  std::atomic<bool> spinning{false};
  std::atomic<bool> done{false};
  rt.run([&](HierRuntime::Ctx& c) {
    HierRuntime::fork2(
        c, {},
        [&](HierRuntime::Ctx& ca) {
          while (!spinning.load(std::memory_order_acquire)) {
            std::this_thread::yield();  // until a thief runs b
          }
          // 4 KiB objects: hundreds of slow paths, and GC stress turns
          // every 32nd into a stop of the world.
          for (int i = 0; i < 20000; ++i) {
            (void)ca.alloc(0, 512);
          }
          done.store(true, std::memory_order_release);
          return 0;
        },
        [&](HierRuntime::Ctx& cb) {
          spinning.store(true, std::memory_order_release);
          while (!done.load(std::memory_order_acquire)) {
            cb.poll();
          }
          return 0;
        });
    return 0;
  });
}

PARMEM_TEST(serve_soak_localheap_reaches_steady_state) {
  // The global heap used to be a pure allocation sink -- promoted
  // session state was reclaimed only at run() exit, so a long-running
  // server's footprint grew with every wave (the old soak pinned that
  // slope as the design). With gc_global_threshold set, the
  // stopped-world global collection bounds the sink the way the join
  // threshold bounds hier's root heap, so the local-heap runtime now
  // holds the SAME flatness contract as the other three.
  LhRuntime::Options o;
  o.workers = 2;
  o.gc_min_budget = std::size_t{1} << 20;
  o.gc_global_threshold = std::size_t{256} << 10;
  LhRuntime rt(o);
  std::vector<std::size_t> live;
  std::vector<std::size_t> rss;
  run_soak_waves(rt, 2, &live, &rss);
  check_soak_steady_state(live, rss);
  CHECK(rt.stats().global_gc_count > 0);  // flatness came from cycles
}

// ---- scheduler quiescence --------------------------------------------------

PARMEM_TEST(serve_quiescent_pool_has_near_zero_idle_wakeups) {
  HierRuntime::Options o;
  o.workers = 4;
  HierRuntime rt(o);
  serve::ServeConfig cfg = tiny_serve_config();
  cfg.requests = 200;
  cfg.lanes = 4;
  // Sample during the burst too: this is the suite's sanitizer
  // coverage for the RSS/live background sampler racing the workers.
  cfg.sample_memory = true;
  const serve::ServeResult burst = serve::serve_run(rt, cfg);
  CHECK(burst.peak_rss_bytes > 0);
  CHECK(burst.peak_rss_bytes >= burst.steady_rss_bytes);

  // Let every worker finish its spin/yield backoff and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint64_t base = rt.scheduler_idle_wakeups();

  // A window shorter than the park backstop: a freshly parked worker
  // cannot time out inside it, so the pool is near-silent. (The old
  // 10 ms backstop produced ~100 wakeups per worker per second here.)
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  const std::uint64_t quiet = rt.scheduler_idle_wakeups() - base;
  CHECK(quiet <= o.workers);

  // A window spanning multiple backstops: the counter is alive (each
  // parked worker times out once per kParkBackstop) but bounded by the
  // backstop cadence, not the old 100 Hz churn.
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  const std::uint64_t longer = rt.scheduler_idle_wakeups() - base;
  CHECK(longer >= 1);
  CHECK(longer <= std::uint64_t{5} * o.workers);
}

}  // namespace
