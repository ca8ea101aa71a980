// Steady-state allocation freedom for the sharded parallel engine at real
// concurrency, enforced with the benchmark operator-new hook (linked into
// this binary only, like test_trace — the hook is a global replacement and
// must not leak into other test executables).
//
// After warm-up waves (per-shard buffer/frame pools carved, SPSC rings
// preallocated, the persistent worker pool spawned), one more identical
// wave must perform zero heap allocations: no per-event, per-packet,
// per-quantum, or per-park allocation anywhere in the engine, transport, or
// synchronization path. The grid covers the message sizes around the FM 2.x
// packet boundary, the dense all-to-all and sparse ring patterns, and the
// one-shard reference model next to a 4-shard cluster at 4 threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench/common/alloc_hook.hpp"
#include "common/buffer_pool.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "myrinet/params.hpp"

namespace fmx {
namespace {

constexpr int kNodes = 4;
constexpr int kMsgsPerPeer = 30;
constexpr int kMaxWarmupWaves = 4;

enum class Pattern { kAllToAll, kRing };

struct Wave {
  net::ParallelCluster& cl;
  std::vector<std::unique_ptr<fm2::Endpoint>>& eps;
  std::vector<int>& got;
  Pattern pattern;
  int threads;

  // Every node streams kMsgsPerPeer messages to each peer (all-to-all) or
  // to its right neighbor only (ring); receivers poll until they saw all.
  void run(const Bytes& payload) {
    const int peers = pattern == Pattern::kRing ? 1 : kNodes - 1;
    std::fill(got.begin(), got.end(), 0);
    for (int i = 0; i < kNodes; ++i) {
      cl.spawn_on(i, [](fm2::Endpoint& ep, ByteSpan msg, int self,
                        bool ring) -> sim::Task<void> {
        for (int m = 0; m < kMsgsPerPeer; ++m) {
          for (int j = 0; j < kNodes; ++j) {
            if (j == self || (ring && j != (self + 1) % kNodes)) continue;
            co_await ep.send(j, 0, msg);
          }
        }
      }(*eps[i], ByteSpan{payload}, i, pattern == Pattern::kRing));
      cl.spawn_on(i, [](fm2::Endpoint& ep, int& g,
                        int want) -> sim::Task<void> {
        co_await ep.poll_until([&g, want] { return g == want; });
      }(*eps[i], got[i], kMsgsPerPeer * peers));
    }
    const auto r = cl.run(threads);
    ASSERT_EQ(r.pending_roots, 0);
    for (int i = 0; i < kNodes; ++i) EXPECT_EQ(got[i], kMsgsPerPeer * peers);
  }
};

/// Blocks the cluster's buffer pools have allocated so far, over all shards.
std::uint64_t pool_blocks(net::ParallelCluster& cl) {
  std::uint64_t n = 0;
  for (int s = 0; s < cl.n_shards(); ++s) {
    n += cl.shard_fabric(s).pool().stats().fresh_allocs;
  }
  return n;
}

/// Runs warm-up waves until one adds no buffer-pool block (at most
/// kMaxWarmupWaves), then an identical measured wave; returns the heap
/// allocations of the measured wave. `size_of` maps the endpoints'
/// per-packet payload to the message size.
template <typename SizeFn>
std::uint64_t measured_allocs(int shards, int threads, Pattern pattern,
                              SizeFn size_of) {
  net::ParallelCluster cl(net::ppro_fm2_cluster(kNodes), shards);
  EXPECT_EQ(cl.n_shards(), shards);
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  for (int i = 0; i < kNodes; ++i) {
    eps.push_back(
        std::make_unique<fm2::Endpoint>(cl.node(i), cl.fabric_of(i)));
  }
  const std::size_t size = size_of(eps[0]->max_payload_per_packet());
  std::vector<int> got(kNodes, 0);
  std::vector<Bytes> sink(kNodes, Bytes(size));
  for (int i = 0; i < kNodes; ++i) {
    eps[i]->register_handler(
        0, [&sink, &got, i](fm2::RecvStream& s, int) -> fm2::HandlerTask {
          const std::size_t n = s.msg_bytes();
          if (n > 0) co_await s.receive(sink[i].data(), n);
          ++got[i];
        });
  }
  const Bytes payload = pattern_bytes(11, size);
  Wave wave{cl, eps, got, pattern, threads};

  // Warm every pool and spawn the persistent worker threads. A one-shard
  // cluster's buffer pool grows on demand, and the first wave is not yet
  // the steady state: it starts with empty host rings but ends with one
  // credit-return packet per node still unconsumed, so the next wave
  // starts with those held and needs a few more blocks.
  int waves = 0;
  std::uint64_t before = 0;
  do {
    before = pool_blocks(cl);
    wave.run(payload);
  } while (pool_blocks(cl) != before && ++waves < kMaxWarmupWaves);
  EXPECT_EQ(pool_blocks(cl), before)
      << size << " B messages on " << shards
      << " shards: the buffer pool still grew in warm-up wave "
      << kMaxWarmupWaves;

  bench::alloc_hook_reset();
  wave.run(payload);
  return bench::alloc_hook_count();
}

TEST(ParallelAlloc, SteadyStateAllocationFreeAt4Threads) {
  EXPECT_EQ(measured_allocs(kNodes, 4, Pattern::kAllToAll,
                            [](std::size_t) { return std::size_t{1024}; }),
            0u)
      << "sharded steady state allocated: a per-event/per-quantum/per-park "
         "allocation crept back into the parallel hot path";
}

// Returning a block parks it on an intrusive free list, so the only heap
// allocations a pool makes are its misses: after N, then 2N blocks
// acquired and released per class, operator new ran once per fresh block.
TEST(ParallelAlloc, ReturningABlockNeverAllocates) {
  constexpr int kN = 100;
  constexpr std::size_t kSizes[] = {64, 512, 4096};
  BufferPool pool;
  std::vector<BufferRef> held;
  held.reserve(2 * kN);
  bench::alloc_hook_reset();
  for (const std::size_t size : kSizes) {
    for (const int n : {kN, 2 * kN}) {
      for (int i = 0; i < n; ++i) held.push_back(pool.acquire_ref(size));
      held.clear();
    }
  }
  const std::uint64_t allocs = bench::alloc_hook_count();
  EXPECT_EQ(pool.stats().fresh_allocs, std::size(kSizes) * 2 * kN);
  EXPECT_EQ(allocs, pool.stats().fresh_allocs);
  EXPECT_EQ(pool.stats().free_buffers, std::size(kSizes) * 2 * kN);
}

// A one-shard cluster's pool starts empty; a multi-shard cluster pre-warms
// each shard's pool with 128 x (hosts + 1) blocks in every packet size
// class, six classes (64 B .. 2 KiB) for the ppro preset's cross-shard slot.
TEST(ParallelAlloc, OnlyMultiShardClustersPrewarmTheirPools) {
  const net::ClusterParams p = net::ppro_fm2_cluster(kNodes);
  net::ParallelCluster one(p, 1);
  EXPECT_EQ(one.shard_fabric(0).pool().stats().fresh_allocs, 0u);
  EXPECT_EQ(one.shard_fabric(0).pool().stats().free_buffers, 0u);

  net::ParallelCluster two(p, 2);
  for (int s = 0; s < two.n_shards(); ++s) {
    std::uint64_t hosts = 0;
    for (int i = 0; i < kNodes; ++i) hosts += two.shard_of(i) == s ? 1 : 0;
    const std::uint64_t warm = 6 * 128 * (hosts + 1);
    const BufferPool::Stats& st = two.shard_fabric(s).pool().stats();
    EXPECT_EQ(st.fresh_allocs, warm) << "shard " << s;
    EXPECT_EQ(st.free_buffers, warm) << "shard " << s;
    EXPECT_EQ(st.outstanding, 0u) << "shard " << s;
  }
}

// Message size as a multiple of the FM 2.x per-packet payload ("MTU": the
// largest message that fits one packet) plus a byte offset.
struct SizeCase {
  const char* name;
  int mtus;
  int plus;
};
constexpr SizeCase kSizeGrid[] = {
    {"0B", 0, 0},          {"1B", 0, 1},   {"MtuMinus1", 1, -1},
    {"Mtu", 1, 0},         {"MtuPlus1", 1, 1}, {"64KB", 0, 64 * 1024},
};

using GridParam = std::tuple<int /*size case*/, Pattern, int /*shards*/>;

class ParallelAllocGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(ParallelAllocGrid, SteadyStateAllocationFree) {
  const auto [size_case, pattern, shards] = GetParam();
  const SizeCase sc = kSizeGrid[size_case];
  const std::uint64_t allocs = measured_allocs(
      shards, shards == 1 ? 1 : 4, pattern, [sc](std::size_t mtu) {
        return static_cast<std::size_t>(static_cast<long>(mtu) * sc.mtus +
                                        sc.plus);
      });
  EXPECT_EQ(allocs, 0u) << sc.name << " messages allocated in steady state";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelAllocGrid,
    ::testing::Combine(::testing::Range(0, static_cast<int>(
                                               std::size(kSizeGrid))),
                       ::testing::Values(Pattern::kAllToAll, Pattern::kRing),
                       ::testing::Values(1, 4)),
    [](const auto& pinfo) {
      const SizeCase& sc = kSizeGrid[std::get<0>(pinfo.param)];
      const bool ring = std::get<1>(pinfo.param) == Pattern::kRing;
      return std::string(sc.name) + (ring ? "_Ring_" : "_AllToAll_") +
             std::to_string(std::get<2>(pinfo.param)) + "Shards";
    });

}  // namespace
}  // namespace fmx
