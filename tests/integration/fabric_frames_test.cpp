// Frame gate for the fat-tree traffic path: a one-thread wave must create
// at most three coroutine frames per engine event. Before credit return
// walked only the peers owed credits, every FM_extract created one frame
// per cluster peer, which put fabric-scale runs at 20+ frames per event.
#include <gtest/gtest.h>

#include <cstdint>

#include "myrinet/parallel_cluster.hpp"
#include "sim/frame_pool.hpp"
#include "workload/traffic_engine.hpp"

namespace fmx {
namespace {

TEST(FabricFrames, OneThreadWaveAtMostThreeFramesPerEvent) {
  constexpr int kHosts = 256;
  auto params = net::fat_tree_cluster(kHosts);
  net::ParallelCluster cl(params, 4);
  workload::TrafficEngine te(cl);

  workload::TrafficConfig cfg;
  cfg.sizes = workload::SizeDistribution::bounded_pareto(1.2, 32, 2048);
  cfg.flow_rate_per_host = 2e7;
  cfg.flows_per_host = 8;
  cfg.seed = 5;
  const auto sched = workload::make_schedule(cfg, kHosts);

  // One worker: every frame of the wave comes from this thread's pool.
  const std::uint64_t before = sim::frame_pool_stats().allocs;
  const auto wave = te.run_wave(sched, 1);
  const std::uint64_t frames = sim::frame_pool_stats().allocs - before;

  ASSERT_EQ(wave.completed, sched.total_flows);
  ASSERT_EQ(wave.pending_roots, 0);
  ASSERT_GT(wave.events, 0u);
  const double per_event = static_cast<double>(frames) / wave.events;
  EXPECT_LE(per_event, 3.0) << frames << " frames over " << wave.events
                            << " events";
}

}  // namespace
}  // namespace fmx
