// Wall-clock scaling of the sharded parallel engine on two 32-node FM 2.x
// workloads — dense all-to-all streaming and a sparse ring
// neighbor-exchange (each node streams to its right neighbor only) — vs
// the one-shard reference model on the identical all-to-all workload.
// 32 hosts on 8 shards (4 per shard, aligned with the switch chain): with
// one host per shard there is no local work at all and every shard's event
// density is capped by a single simulated CPU, which measures the
// degenerate worst case rather than the regime sharding is for.
// Writes BENCH_parallel.json in the shared report layout (bench_report.hpp),
// one set of rows per message size:
//   - rows.sizes: the one-shard cluster at 1 thread (serial_events_per_sec,
//     the reference model: every node and the whole fabric on one engine),
//     the 4-thread speedups, and shard_tax_pct — how much the 8-shard model
//     at 1 thread gives up vs that serial run (horizon publishes +
//     cross-shard copies)
//   - rows.alltoall / rows.ring: per-thread-count events/sec for the 8-shard
//     cluster at 1/2/4/8 threads, with a determinism digest that must be
//     identical across all of them (summary.digest_ok), allocs_per_event
//     (steady state; per-shard pools and the persistent worker pool keep
//     this at exactly 0), and the two synchronization meters of the
//     published-horizon scheduler: events_per_window (events executed
//     across the cluster per window-equivalent of simulated progress —
//     events * n_shards divided by the count of non-empty per-shard
//     advance quanta; the retired barrier scheme's events-per-global-window
//     sat around 10) and barrier_crossings (condvar parks — the only
//     remaining mutex crossings). The ring is the workload where the
//     per-pair lookahead matrix lets distant shards synchronize loosely.
//   - machine.cpus: speedup is only meaningful when the machine actually
//     has the cores; scripts/bench_check.py arms that gate on it.
//
// Every wall-clock figure is the median of `repetitions` (default 5)
// measured waves per configuration, each after a warm-up wave of the same
// size; alloc counts are maxima across waves.
//
// Usage: parallel_scaling [msg_sizes] [msgs_per_pair] [out.json] [repetitions]
//   msg_sizes is one size or a comma list (e.g. 0,1024; default 1024).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.hpp"
#include "bench_report.hpp"
#include "bench_util.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "trace/trace.hpp"

using namespace fmx;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kHosts = 32;
constexpr int kShards = 8;

struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

// All-to-all stream: every node sends `per_pair` messages to every peer;
// receivers poll until they saw them all. Works identically at any shard
// count, since endpoints only touch node-local state.
void all_to_all(net::ParallelCluster& cl,
                std::vector<std::unique_ptr<fm2::Endpoint>>& eps,
                std::vector<int>& got, const Bytes& payload, int per_pair) {
  std::fill(got.begin(), got.end(), 0);
  for (int i = 0; i < kHosts; ++i) {
    cl.spawn_on(i, [](fm2::Endpoint& ep, ByteSpan msg, int self,
                      int n) -> sim::Task<void> {
      for (int m = 0; m < n; ++m) {
        for (int j = 0; j < kHosts; ++j) {
          if (j != self) co_await ep.send(j, 0, msg);
        }
      }
    }(*eps[i], ByteSpan{payload}, i, per_pair));
    cl.spawn_on(i, [](fm2::Endpoint& ep, int& g, int want) -> sim::Task<void> {
      co_await ep.poll_until([&g, want] { return g == want; });
    }(*eps[i], got[i], per_pair * (kHosts - 1)));
  }
}

void make_handlers(std::vector<std::unique_ptr<fm2::Endpoint>>& eps,
                   std::vector<int>& got, std::vector<Digest>& rx,
                   std::vector<Bytes>& sink) {
  for (int i = 0; i < kHosts; ++i) {
    eps[i]->register_handler(
        0, [&got, &rx, &sink, i](fm2::RecvStream& s,
                                 int src) -> fm2::HandlerTask {
          const std::size_t n = s.msg_bytes();
          if (n > 0) co_await s.receive(sink[i].data(), n);
          rx[i].mix(static_cast<std::uint64_t>(src) ^ n);
          ++got[i];
        });
  }
}

// Sparse counterpart to all_to_all: every node streams `per_pair` messages
// to its right neighbor only, so each shard talks to two others. With the
// per-pair lookahead matrix, non-adjacent shards synchronize loosely; under
// a single global lookahead this workload paid the same tight windows as
// the dense one.
void ring_exchange(net::ParallelCluster& cl,
                   std::vector<std::unique_ptr<fm2::Endpoint>>& eps,
                   std::vector<int>& got, const Bytes& payload, int per_pair) {
  std::fill(got.begin(), got.end(), 0);
  for (int i = 0; i < kHosts; ++i) {
    cl.spawn_on(i, [](fm2::Endpoint& ep, ByteSpan msg, int dst,
                      int n) -> sim::Task<void> {
      for (int m = 0; m < n; ++m) co_await ep.send(dst, 0, msg);
    }(*eps[i], ByteSpan{payload}, (i + 1) % kHosts, per_pair));
    cl.spawn_on(i, [](fm2::Endpoint& ep, int& g, int want) -> sim::Task<void> {
      co_await ep.poll_until([&g, want] { return g == want; });
    }(*eps[i], got[i], per_pair));
  }
}

struct Measured {
  double wall_s = 0;  // median across repetitions
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;  // max across repetitions
  std::uint64_t digest = 0;
  std::uint64_t windows = 0;
  std::uint64_t barrier_crossings = 0;
};

Measured run_parallel(int shards, int threads, std::size_t msg_size,
                      int per_pair, int reps, bool ring) {
  auto params = net::ppro_fm2_cluster(kHosts);
  // Deep host receive region (FM 2.x keeps flow-control state in host
  // memory precisely so the receive window can be large): the default 64
  // slots split across 31 peers would leave each flow 2 credits and every
  // sender idle for most of the round trip. 512 slots keep all flows
  // streaming, which is the regime the scaling bench is about.
  params.nic.host_ring_slots = 512;
  net::ParallelCluster cl(params, shards);
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  for (int i = 0; i < kHosts; ++i) {
    eps.push_back(
        std::make_unique<fm2::Endpoint>(cl.node(i), cl.fabric_of(i)));
  }
  std::vector<int> got(kHosts, 0);
  std::vector<Digest> rx(kHosts);
  std::vector<Bytes> sink(kHosts, Bytes(msg_size));
  make_handlers(eps, got, rx, sink);
  const Bytes payload = pattern_bytes(3, msg_size);

  Measured m;
  auto wave = [&](int pairs) {
    if (ring) {
      ring_exchange(cl, eps, got, payload, pairs);
    } else {
      all_to_all(cl, eps, got, payload, pairs);
    }
    const auto r = cl.run(threads);
    m.windows = r.windows;
    m.barrier_crossings = r.barrier_crossings;
    return r.events;
  };

  // Warm up with a wave as large as a measured one, so pools, receive
  // rings and channel queues reach the measured high-water mark before the
  // first measured rep; this also spawns the persistent worker pool.
  wave(per_pair);
  std::vector<double> walls;
  for (int r = 0; r < reps; ++r) {
    bench::alloc_hook_reset();
    const auto t0 = Clock::now();
    m.events = wave(per_pair);
    const auto t1 = Clock::now();
    m.allocs = std::max(m.allocs, bench::alloc_hook_count());
    walls.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  m.wall_s = bench::median(walls);

  // Window and park counts stay out of the digest: they are scheduling
  // meters, thread-timing-dependent by design under the published-horizon
  // scheduler. Only simulated results must be bit-identical.
  Digest d;
  d.mix(m.events);
  for (int i = 0; i < kHosts; ++i) {
    d.mix(rx[i].h);
    d.mix(eps[i]->stats().packets_sent);
    d.mix(eps[i]->stats().bytes_received);
  }
  m.digest = d.h;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> sizes;
  for (const char* p = argc > 1 ? argv[1] : "1024"; *p != '\0';) {
    char* end = nullptr;
    sizes.push_back(std::strtoull(p, &end, 10));
    if (end == p || (*end != ',' && *end != '\0')) {
      std::fprintf(stderr, "bad message size list: %s\n", argv[1]);
      return 2;
    }
    p = *end == ',' ? end + 1 : end;
  }
  const int per_pair = argc > 2 ? std::atoi(argv[2]) : 100;
  const char* out_path = argc > 3 ? argv[3] : "BENCH_parallel.json";
  const int reps = std::max(argc > 4 ? std::atoi(argv[4]) : 5, 1);
  const int thread_counts[] = {1, 2, 4, 8};
  const sim::Ps lookahead =
      net::Fabric::cross_lookahead(net::ppro_fm2_cluster(kHosts).fabric);

  bench::Report rep("parallel");
  rep.config()
      .str("workload", "fm2_alltoall_stream")
      .str("ring_workload", "fm2_ring_exchange")
      .num("n_hosts", kHosts)
      .num("shards", kShards)
      .num("msgs_per_pair", per_pair)
      .num("repetitions", reps)
      .num("lookahead_ps", lookahead);

  // Events per cluster window-equivalent: windows counts non-empty
  // per-shard quanta, so one "every shard stepped once" stretch
  // contributes n_shards of them.
  auto epw = [](const Measured& m) {
    return static_cast<double>(m.events) * kShards / m.windows;
  };

  bool digest_ok = true;
  for (const std::size_t msg_size : sizes) {
    std::printf("parallel_scaling: %d-node all-to-all, %d msgs/pair x %zu B, "
                "%d reps (medians), %u cpu(s), lookahead %.0f ns\n",
                kHosts, per_pair, msg_size, reps,
                std::thread::hardware_concurrency(), sim::to_ns(lookahead));
    const Measured serial =
        run_parallel(1, 1, msg_size, per_pair, reps, false);
    const double serial_eps = serial.events / serial.wall_s;
    std::printf("  serial engine      %9.3g events/sec (%llu events, "
                "%.3f s)\n",
                serial_eps, static_cast<unsigned long long>(serial.events),
                serial.wall_s);

    // One thread-count sweep on 8 shards; returns events/sec per count.
    auto sweep = [&](const char* table, bool ring) {
      std::vector<double> eps;
      Measured first;
      for (int k = 0; k < 4; ++k) {
        const Measured m = run_parallel(kShards, thread_counts[k], msg_size,
                                        per_pair, reps, ring);
        if (k == 0) first = m;
        if (m.digest != first.digest || m.events != first.events) {
          digest_ok = false;
        }
        eps.push_back(m.events / m.wall_s);
        const double allocs = static_cast<double>(m.allocs) / m.events;
        std::printf("  %-8s %d thread  %9.3g events/sec (digest %016llx, "
                    "%.4f allocs/event, %.0f events/window, %llu parks)\n",
                    table, thread_counts[k], eps[k],
                    static_cast<unsigned long long>(m.digest), allocs, epw(m),
                    static_cast<unsigned long long>(m.barrier_crossings));
        rep.row(table)
            .num("msg_size", msg_size)
            .num("threads", thread_counts[k])
            .num("events_per_sec", eps[k], 1)
            .num("allocs_per_event", allocs, 6)
            .num("windows", m.windows)
            .num("events_per_window", epw(m), 2)
            .num("barrier_crossings", m.barrier_crossings)
            .hex("digest", m.digest);
      }
      return std::pair{eps, epw(first)};
    };
    const auto [par_eps, par_epw] = sweep("alltoall", false);
    const auto [rng_eps, rng_epw] = sweep("ring", true);

    const double speedup_4t = par_eps[2] / par_eps[0];
    const double ring_speedup_4t = rng_eps[2] / rng_eps[0];
    const double shard_tax_pct =
        100.0 * (serial_eps - par_eps[0]) / serial_eps;
    std::printf("  speedup at 4 threads: %.2fx alltoall, %.2fx ring; shard "
                "tax %.1f%%\n",
                speedup_4t, ring_speedup_4t, shard_tax_pct);
    rep.row("sizes")
        .num("msg_size", msg_size)
        .num("serial_events", serial.events)
        .num("serial_events_per_sec", serial_eps, 1)
        .num("events_per_window", par_epw, 2)
        .num("speedup_4t_vs_1t", speedup_4t, 3)
        .num("ring_speedup_4t_vs_1t", ring_speedup_4t, 3)
        .num("shard_tax_pct", shard_tax_pct, 2);
  }
  std::printf("digests %s\n", digest_ok ? "identical" : "DIVERGED");
  rep.summary().flag("digest_ok", digest_ok);
  return rep.write(out_path) && digest_ok ? 0 : 1;
}
