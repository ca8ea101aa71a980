// Properties of the per-pair parallel lookahead matrix (ParallelCluster ->
// ParallelEngine): for every topology preset, host count, and shard count,
//   (1) conservatism — each entry is bounded by the true minimum
//       source-side head latency of any cross-shard path between the two
//       shards, derived independently from Fabric::zero_load_latency by
//       stripping the one end-to-end serialization (cut-through) and the
//       destination downlink (reserved by the destination replica);
//   (2) positivity — conservative parallel execution cannot make progress
//       with a zero bound;
//   (3) metric closure — no direct entry exceeds any relay chain, the
//       property the published-horizon soundness induction leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "myrinet/parallel_cluster.hpp"
#include "myrinet/params.hpp"

namespace fmx {
namespace {

constexpr sim::Ps kNever = std::numeric_limits<sim::Ps>::max();

void check_matrix(net::ClusterParams params, int n_shards) {
  net::ParallelCluster cl(params, n_shards);
  const int k = cl.n_shards();
  if (k < 2) return;
  net::Fabric& f = cl.shard_fabric(0);  // full topology in every replica
  const sim::Ps ser0 = static_cast<sim::Ps>(
      params.fabric.link_ps_per_byte * static_cast<double>(f.wire_bytes(0)));

  // True minimum head latency shard s -> shard d: over all host pairs, the
  // zero-load latency minus the cut-through serialization and the final
  // downlink hop (the destination shard's replica arbitrates that link and
  // re-adds it on delivery).
  std::vector<sim::Ps> ref(static_cast<std::size_t>(k) * k, kNever);
  for (int a = 0; a < params.n_hosts; ++a) {
    for (int b = 0; b < params.n_hosts; ++b) {
      const int sa = cl.shard_of(a);
      const int sb = cl.shard_of(b);
      if (sa == sb) continue;
      const sim::Ps head =
          f.zero_load_latency(a, b, 0) - ser0 - params.fabric.link_latency;
      sim::Ps& cell = ref[static_cast<std::size_t>(sa) * k + sb];
      cell = std::min(cell, head);
    }
  }

  for (int s = 0; s < k; ++s) {
    for (int d = 0; d < k; ++d) {
      if (s == d) continue;
      const sim::Ps la = cl.lookahead(s, d);
      EXPECT_GE(la, 1u) << "zero lookahead cannot make progress "
                        << s << "->" << d;
      EXPECT_LE(la, ref[static_cast<std::size_t>(s) * k + d])
          << "lookahead " << s << "->" << d
          << " exceeds the true minimum head latency (unsound)";
    }
  }

  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      for (int c = 0; c < k; ++c) {
        if (a == b || b == c || a == c) continue;
        EXPECT_LE(cl.lookahead(a, c),
                  cl.lookahead(a, b) + cl.lookahead(b, c))
            << "matrix not metric-closed at " << a << "->" << b << "->" << c;
      }
    }
  }
}

TEST(LookaheadMatrix, ConservativeAndClosedAcrossTopologies) {
  for (const int n_hosts : {4, 8, 16, 24}) {
    for (const int n_shards : {2, 3, n_hosts /* one shard per node */}) {
      SCOPED_TRACE("ppro n_hosts=" + std::to_string(n_hosts) +
                   " n_shards=" + std::to_string(n_shards));
      check_matrix(net::ppro_fm2_cluster(n_hosts), n_shards);
    }
    SCOPED_TRACE("sparc n_hosts=" + std::to_string(n_hosts));
    check_matrix(net::sparc_fm1_cluster(n_hosts), n_hosts);
  }
}

// Distant shards must synchronize more loosely than adjacent ones when the
// topology has multiple switches: the per-pair matrix is the whole point
// over a single global lookahead.
TEST(LookaheadMatrix, MultiSwitchPairsScaleWithDistance) {
  auto params = net::ppro_fm2_cluster(24);  // 3 switches at 8 hosts each
  net::ParallelCluster cl(params, 3);       // one shard per switch
  ASSERT_EQ(cl.n_shards(), 3);
  const sim::Ps unit =
      params.fabric.link_latency + params.fabric.switch_latency;
  EXPECT_GT(cl.lookahead(0, 2), cl.lookahead(0, 1));
  EXPECT_EQ(cl.lookahead(0, 1), 2 * unit);  // uplink + one inter-switch hop
  EXPECT_EQ(cl.lookahead(0, 2), 3 * unit);
}

}  // namespace
}  // namespace fmx
