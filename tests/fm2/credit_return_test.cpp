// Receiver credit return (FM_extract's second half): the owed-peer set,
// its live ascending scan, and the two properties the endpoint relies on —
// an extract with nothing owed costs the same at any cluster size, and
// credit packets leave in ascending peer order, including for a peer that
// became owed while an earlier peer's return was suspended.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/credit_return.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/fault_hooks.hpp"
#include "myrinet/packet.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/frame_pool.hpp"
#include "tests/common/sim_fixture.hpp"

namespace fmx {
namespace {

using sim::Engine;
using sim::Task;

std::vector<int> scan(const CreditReturn& c) {
  std::vector<int> v;
  for (int p = c.next_owed(0); p >= 0; p = c.next_owed(p + 1)) v.push_back(p);
  return v;
}

TEST(CreditReturn, OwedSetTracksThresholdAcrossWords) {
  CreditReturn c;
  c.reset(200, 2);
  for (int p : {130, 3, 64, 199}) {
    c.slot_freed(p);
    EXPECT_EQ(scan(c), std::vector<int>{}) << "one slot is below threshold";
  }
  for (int p : {130, 3, 64, 199}) c.slot_freed(p);
  EXPECT_EQ(scan(c), (std::vector<int>{3, 64, 130, 199}));
  EXPECT_EQ(c.pending(64), 2);
  // A piggyback drains the peer below threshold: no longer owed.
  EXPECT_EQ(c.take(64), 2);
  EXPECT_EQ(c.pending(64), 0);
  EXPECT_EQ(scan(c), (std::vector<int>{3, 130, 199}));
  EXPECT_EQ(c.next_owed(200), -1);
}

TEST(CreditReturn, ScanSeesHigherPeersOwedMidScan) {
  CreditReturn c;
  c.reset(100, 1);
  c.slot_freed(10);
  c.slot_freed(50);
  std::vector<int> visited;
  for (int p = c.next_owed(0); p >= 0; p = c.next_owed(p + 1)) {
    visited.push_back(p);
    c.take(p);
    if (p == 10) {
      c.slot_freed(70);  // above the cursor: visited in this pass
      c.slot_freed(5);   // below it: left for the next pass
    }
  }
  EXPECT_EQ(visited, (std::vector<int>{10, 50, 70}));
  EXPECT_EQ(scan(c), std::vector<int>{5});
}

TEST(CreditReturn, WireCapRemainderStaysOwed) {
  CreditReturn c;
  c.reset(4, 8);
  for (int i = 0; i < 0xFFFF + 9; ++i) c.slot_freed(2);
  EXPECT_EQ(c.take(2), 0xFFFF);
  EXPECT_EQ(c.pending(2), 9);
  EXPECT_EQ(scan(c), std::vector<int>{2}) << "remainder >= threshold";
  EXPECT_EQ(c.take(2), 9);
  EXPECT_EQ(scan(c), std::vector<int>{});
}

// Frames allocated by one extract() on node 0 of an idle `hosts`-host
// cluster, after a first run has parked every NIC daemon.
std::uint64_t idle_extract_frames(int hosts) {
  net::ParallelCluster cl(net::fat_tree_cluster(hosts));
  Engine& eng = cl.shard_engine(0);
  fm2::Endpoint ep(cl.node(0), cl.fabric_of(0));
  auto one_extract = [](fm2::Endpoint& e) -> Task<void> {
    (void)co_await e.extract();
  };
  eng.spawn(one_extract(ep));
  eng.run();
  const std::uint64_t before = sim::frame_pool_stats().allocs;
  eng.spawn(one_extract(ep));
  eng.run();
  EXPECT_EQ(eng.pending_roots(), 0);
  return sim::frame_pool_stats().allocs - before;
}

TEST(CreditReturn, IdleExtractFramesIndependentOfClusterSize) {
  const std::uint64_t small = idle_extract_frames(16);
  EXPECT_EQ(idle_extract_frames(512), small);
  EXPECT_LE(small, 4u);
}

// Records the explicit credit packets node 0 puts on the wire, in delivery
// order. All hosts hang off one crossbar, so every path from node 0 has the
// same latency and delivery order is departure order.
struct CreditTap : net::FaultInjector {
  struct Seen {
    int dst;
    int credits;
  };
  net::WireFault on_deliver(const net::WirePacket& pkt) override {
    const auto h = wire::parse_header(pkt.payload.span());
    if (pkt.src == 0 && static_cast<wire::PacketType>(h.type) ==
                            wire::PacketType::kCredit) {
      seen.push_back({pkt.dst, h.credits});
    }
    return {};
  }
  std::vector<Seen> seen;
};

TEST(CreditReturn, PacketsLeaveInAscendingPeerOrder) {
  constexpr std::size_t kBytes = 64;
  constexpr int kHosts = 6;
  fm2::Config cfg;
  cfg.credits_per_peer = 8;
  cfg.credit_return_threshold = 2;
  net::ParallelCluster cl(net::ppro_fm2_cluster(kHosts));
  Engine& eng = cl.shard_engine(0);
  CreditTap tap;
  cl.shard_fabric(0).set_fault(&tap);
  std::vector<std::unique_ptr<fm2::Endpoint>> eps;
  for (int i = 0; i < kHosts; ++i) {
    eps.push_back(std::make_unique<fm2::Endpoint>(cl.node(i), cl.fabric_of(i),
                                                  cfg));
  }
  fm2::Endpoint& rx = *eps[0];

  std::uint64_t returns_when_peer3_freed = ~std::uint64_t{0};
  rx.register_handler(1, [&](fm2::RecvStream& s, int src) -> fm2::HandlerTask {
    Bytes buf(kBytes);
    co_await s.receive(MutByteSpan{buf});
    if (src == 3) returns_when_peer3_freed = rx.stats().credit_packets_sent;
  });

  // Peers 1, 2 and 4 send two messages (one packet each) and peer 5 one;
  // peer 3's two arrive well after all of them.
  const Bytes msg(kBytes);
  auto sender = [](Engine& e, fm2::Endpoint& ep, ByteSpan m, int n,
                   sim::Ps start) -> Task<void> {
    co_await e.delay(start);
    for (int i = 0; i < n; ++i) co_await ep.send(0, 1, m);
  };
  for (int p : {1, 2, 4}) eng.spawn(sender(eng, *eps[p], msg, 2, 0));
  eng.spawn(sender(eng, *eps[5], msg, 1, 0));
  eng.spawn(sender(eng, *eps[3], msg, 2, sim::us(60)));

  // Poller A extracts exactly the seven early packets: peers 1, 2, 4 reach
  // the threshold, peer 5 stays below it.
  eng.spawn([](Engine& e, fm2::Endpoint& ep) -> Task<void> {
    co_await e.delay(sim::us(200));
    (void)co_await ep.extract(7 * kBytes);
  }(eng, rx));
  // Poller B extracts peer 3's packets while A is suspended returning
  // peer 1's credits, so peer 3 crosses the threshold mid-scan.
  eng.spawn([](Engine& e, fm2::Endpoint& ep) -> Task<void> {
    co_await e.delay(sim::us(200));
    while (ep.stats().credit_packets_sent == 0) co_await e.delay(sim::ns(10));
    (void)co_await ep.extract();
  }(eng, rx));
  ASSERT_TRUE(fmx::test::run_to_exhaustion(eng));

  EXPECT_EQ(returns_when_peer3_freed, 1u);
  ASSERT_EQ(tap.seen.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tap.seen[i].dst, i + 1) << "credit packet " << i;
    EXPECT_EQ(tap.seen[i].credits, 2) << "credit packet " << i;
  }
  EXPECT_EQ(rx.stats().credit_packets_sent, 4u);
  for (int p = 1; p <= 4; ++p) EXPECT_EQ(rx.credits_pending_return(p), 0);
  EXPECT_EQ(rx.credits_pending_return(5), 1) << "below threshold: kept";
}

}  // namespace
}  // namespace fmx
