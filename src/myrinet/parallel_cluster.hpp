// Sharded cluster for conservative parallel execution (sim/parallel.hpp).
//
// Partitioning: each shard owns a contiguous range of nodes (host + I/O bus
// + NIC — all of a node's events stay on its shard) plus its own replica of
// the switch fabric. A replica carries the full link topology, but only the
// links a shard arbitrates matter: a packet to a local destination runs the
// ordinary serial path; a packet to a remote destination reserves its
// source-side links here, then crosses to the destination shard through a
// bounded SPSC ring with its head-arrival time and a deterministic order
// key (source node, per-source counter). The destination replica reserves
// the final downlink, applies SRAM back-pressure and fault hooks, and
// delivers — so per-packet semantics are identical at every thread count.
//
// Each shard also gets its own buffer pool, tracer, RNG, and (optionally)
// fault injector, so no mutable state is shared between shards; workers
// only meet at window barriers and ring publishes. Per-shard traces merge
// deterministically via trace::merge_streams.
//
// One shard is the reference model: every node and the whole fabric live
// on one engine, so it is the serial simulator (tests drive it with
// shard_engine(0).run() as well as run(1)). Several shards partition the
// same model; two semantics differ from one shard: back-pressure on a
// cross-shard path is exerted at the destination's downlink (where the
// STOP/GO signal physically originates) instead of at injection time, and
// inter-switch links are arbitrated per source shard. Single-switch
// clusters (n_hosts <= hosts_per_switch, e.g. the 8-node FM2 preset) have
// no inter-switch links, so only the back-pressure timing differs. Results
// are bit-identical across thread counts at every shard count.
//
// With several shards, workload code must keep its conditions node-local:
// a poll_until on one node watching state mutated by another shard's
// handler deadlocks — once the watcher's shard goes idle, nothing local
// wakes the poller. On one shard any event re-polls, so the same code runs
// to completion there and hides the bug. Have each node wait on its own
// counters (run() reports stuck tasks in RunResult::pending_roots).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "myrinet/node.hpp"
#include "sim/parallel.hpp"
#include "sim/spsc.hpp"
#include "trace/trace.hpp"

namespace fmx::net {

class ParallelCluster {
 public:
  /// `n_shards` is clamped to [1, n_hosts]; one shard is the reference
  /// model.
  explicit ParallelCluster(const ClusterParams& p, int n_shards = 1);
  ParallelCluster(const ParallelCluster&) = delete;
  ParallelCluster& operator=(const ParallelCluster&) = delete;
  ~ParallelCluster();

  int size() const noexcept { return params_.n_hosts; }
  int n_shards() const noexcept { return n_shards_; }
  int shard_of(int node) const { return shard_of_[node]; }
  const ClusterParams& params() const noexcept { return params_; }

  sim::ParallelEngine& par() noexcept { return par_; }
  const sim::ParallelEngine& par() const noexcept { return par_; }
  /// Static per-pair lookahead: min head latency of any cross-shard path
  /// from a host of `src_shard` to a host of `dst_shard` (metric-closed).
  sim::Ps lookahead(int src_shard, int dst_shard) const {
    return par_.lookahead(src_shard, dst_shard);
  }
  sim::Engine& shard_engine(int s) { return par_.shard(s); }
  sim::Engine& engine_of(int node) { return par_.shard(shard_of_[node]); }
  Fabric& shard_fabric(int s) { return *fabrics_[s]; }
  Fabric& fabric_of(int node) { return *fabrics_[shard_of_[node]]; }
  Node& node(int i) { return *nodes_[i]; }

  /// Spawn a root task on the shard that owns `node`, starting at the
  /// cluster-wide maximum engine clock. Shard clocks quiesce at different
  /// instants (each stops at its own last event), and roots launched at
  /// each shard's local `now` would start a fresh wave already skewed —
  /// the laggard shard then clamps every peer's conservative bound, and
  /// the residue compounds wave over wave. Aligning the start resets the
  /// skew. Only callable between runs (no workers active), which is the
  /// only time reading foreign shard clocks is race-free.
  void spawn_on(int node, sim::Task<void> t) {
    sim::Ps t0 = 0;
    for (int s = 0; s < par_.n_shards(); ++s) {
      t0 = std::max(t0, par_.shard(s).now());
    }
    engine_of(node).spawn_at(t0, std::move(t));
  }

  struct RunResult {
    std::uint64_t events = 0;
    /// Advance quanta that executed events, summed over shards (see
    /// sim::ParallelEngine::RunResult::windows). A meter, not part of any
    /// determinism digest — it depends on thread scheduling.
    std::uint64_t windows = 0;
    /// Times a worker fell off the spin/yield fast path and parked.
    std::uint64_t barrier_crossings = 0;
    int pending_roots = 0;
  };
  /// Run to global quiescence. `n_threads` 0 means: $FMX_THREADS if set,
  /// else 1. Results are identical for every thread count.
  RunResult run(int n_threads = 0);

  /// Thread count requested via $FMX_THREADS (0 if unset/invalid).
  static int env_threads();

  /// Enable tracing on every shard's tracer (per-shard capacity).
  void enable_tracing(std::size_t capacity_events = 1 << 18);
  /// Deterministically merged trace across all shards.
  std::vector<trace::Event> merged_trace() const;

  /// Fabric stats summed across replicas (packets/bytes count on the source
  /// shard; drops/corruptions/duplicates on the destination shard).
  Fabric::Stats fabric_stats() const;

 private:
  class Port;
  // One directed ring per shard pair. Ring overflow (bounded by design:
  // FM-level credits cap in-flight data) falls back to a mutex-guarded
  // spill list; order between ring and spill is irrelevant because
  // arrivals sort by their cross keys, not by drain order. Spill buffers
  // cycle through a pre-warmed pool (and the list vectors themselves keep
  // their capacity across swaps), so the overflow path stays
  // allocation-free in steady state — batched quanta legitimately let a
  // producer run hundreds of emissions ahead of a drain.
  struct Ring {
    Ring(std::size_t slots, std::size_t slot_bytes) : ring(slots, slot_bytes) {
      // Half the ring depth again in spill buffers: a consumer preempted on
      // a loaded box can leave the ring full plus this many slots spilled
      // before the overflow path has to touch the allocator.
      const std::size_t prewarm = slots / 2;
      pool.reserve(4 * slots);
      spill.reserve(4 * slots);
      drained.reserve(4 * slots);
      for (std::size_t i = 0; i < prewarm; ++i) pool.emplace_back(slot_bytes);
    }
    sim::SpscSlotRing ring;
    std::mutex mu;
    std::vector<std::vector<std::byte>> spill;  // guarded by mu
    std::vector<std::vector<std::byte>> pool;   // guarded by mu
    // Consumer-side scratch, touched only by the destination shard's owner.
    std::vector<std::vector<std::byte>> drained;
    std::atomic<std::uint32_t> spilled{0};
  };

  Ring& ring(int src_shard, int dst_shard) {
    return *rings_[src_shard * n_shards_ + dst_shard];
  }
  void drain_into(int dst_shard);
  void emission_bound(int shard, sim::Ps e, sim::Ps* out) const;
  void expose_metrics();

  ClusterParams params_;
  int n_shards_;
  std::vector<std::int32_t> shard_of_;
  // Static source-side head latency host -> destination shard: the minimum
  // time from an emission on host `a` to a packet head reaching any host
  // of shard `d` (uplink + switch chain; row-major n_hosts x n_shards).
  // The emission-bound hook adds this to max(uplink next-free, next-event).
  std::vector<sim::Ps> sl_host_;
  std::vector<int> shard_begin_;  // host range [shard_begin_[s], shard_begin_[s+1])
  sim::ParallelEngine par_;
  std::vector<std::unique_ptr<Fabric>> fabrics_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace fmx::net
