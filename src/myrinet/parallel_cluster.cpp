#include "myrinet/parallel_cluster.hpp"

#include "common/copy_stats.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

namespace fmx::net {
namespace {

// Wire format of one cross-shard message: header + payload bytes in a ring
// slot (or spill buffer). `ser` is recomputed from payload_len at the
// destination, so only the head time crosses.
struct CrossMsg {
  sim::Ps head;            // head-arrival time at the dst downlink
  std::uint64_t cross_key; // (src node << 44) | per-source-shard counter
  std::uint64_t wire_seq;
  std::uint64_t trace_id;
  std::uint32_t crc;
  std::uint32_t link_seq;
  std::uint32_t ack;
  std::uint32_t payload_len;
  std::int32_t src;
  std::int32_t dst;
  std::uint32_t rkey;
  std::uint32_t rdma_offset;
  std::uint32_t flow;  // ECMP flow label (packet.hpp)
  std::uint8_t has_ack;
  std::uint8_t ack_only;
  std::uint8_t kind;  // PacketKind
  std::uint8_t pad[1];
};
static_assert(std::is_trivially_copyable_v<CrossMsg>);

void encode(std::byte* slot, const WirePacket& pkt, sim::Ps head,
            std::uint64_t key) {
  CrossMsg m{};
  m.head = head;
  m.cross_key = key;
  m.wire_seq = pkt.wire_seq;
  m.trace_id = pkt.trace_id;
  m.crc = pkt.crc;
  m.link_seq = pkt.link_seq;
  m.ack = pkt.ack;
  m.payload_len = static_cast<std::uint32_t>(pkt.payload.size());
  m.src = pkt.src;
  m.dst = pkt.dst;
  m.has_ack = pkt.has_ack ? 1 : 0;
  m.ack_only = pkt.ack_only ? 1 : 0;
  m.kind = static_cast<std::uint8_t>(pkt.kind);
  m.rkey = pkt.rkey;
  m.rdma_offset = pkt.rdma_offset;
  m.flow = pkt.flow;
  std::memcpy(slot, &m, sizeof(m));
  if (!pkt.payload.empty()) {
    std::memcpy(slot + sizeof(m), pkt.payload.data(), pkt.payload.size());
    count_hop_copy(pkt.payload.size());
  }
}

void decode(const std::byte* slot, Fabric& dst_fabric) {
  CrossMsg m;
  std::memcpy(&m, slot, sizeof(m));
  WirePacket pkt;
  pkt.src = m.src;
  pkt.dst = m.dst;
  pkt.wire_seq = m.wire_seq;
  pkt.trace_id = m.trace_id;
  pkt.crc = m.crc;
  pkt.link_seq = m.link_seq;
  pkt.ack = m.ack;
  pkt.has_ack = m.has_ack != 0;
  pkt.ack_only = m.ack_only != 0;
  pkt.kind = static_cast<PacketKind>(m.kind);
  pkt.rkey = m.rkey;
  pkt.rdma_offset = m.rdma_offset;
  pkt.flow = m.flow;
  pkt.payload = dst_fabric.pool().acquire_ref(m.payload_len);
  if (m.payload_len != 0) {
    std::memcpy(pkt.payload.mutable_bytes().data(), slot + sizeof(m),
                m.payload_len);
    count_hop_copy(m.payload_len);
  }
  dst_fabric.accept_remote(std::move(pkt), m.head, m.cross_key);
}

constexpr std::size_t kRingSlots = 256;

// Contiguous node ranges per shard (aligns with switch locality).
std::vector<std::int32_t> make_shard_of(int n_hosts, int k) {
  std::vector<std::int32_t> out(n_hosts);
  for (int i = 0; i < n_hosts; ++i) {
    out[i] = static_cast<std::int32_t>(
        static_cast<std::int64_t>(i) * k / n_hosts);
  }
  return out;
}

// Per-pair lookahead: the minimum source-side head latency from any host
// of `src` to any host of `dst`. A cross-shard packet's head reaches the
// destination shard no earlier than one (link + switch) per switch hop on
// its path — the same per-link terms Fabric::transmit reserves, with
// serialization and contention stripped. Every ECMP path of a fat-tree
// pair has the same hop count, so hops() is an exact (not just
// conservative) distance. Adjacent chain shards get the classic one-hop
// 850 ns; cross-pod fat-tree shards synchronize 5x less often.
std::vector<sim::Ps> make_lookahead(const ClusterParams& p,
                                    const std::vector<std::int32_t>& shard_of,
                                    int k) {
  const Topo topo(p.fabric, p.n_hosts);
  const sim::Ps unit = p.fabric.link_latency + p.fabric.switch_latency;
  std::vector<sim::Ps> la(static_cast<std::size_t>(k) * k,
                          std::numeric_limits<sim::Ps>::max());
  for (int a = 0; a < p.n_hosts; ++a) {
    for (int b = 0; b < p.n_hosts; ++b) {
      const int sa = shard_of[a];
      const int sb = shard_of[b];
      if (sa == sb) continue;
      const sim::Ps v = static_cast<sim::Ps>(topo.hops(a, b)) * unit;
      sim::Ps& cell = la[static_cast<std::size_t>(sa) * k + sb];
      if (v < cell) cell = v;
    }
  }
  return la;
}

}  // namespace

// Source-shard side of the exchange: serialize into the (src,dst) ring, or
// spill under the mutex when the ring is momentarily full / the payload is
// oversized. One port per shard; emit() runs only on the shard's owner.
class ParallelCluster::Port final : public CrossShardPort {
 public:
  Port(ParallelCluster* cl, int shard) : cl_(cl), shard_(shard) {}

  void emit(const WirePacket& pkt, sim::Ps head) override {
    // 60-bit keys: node id (16 bits) above a 44-bit per-source-shard
    // counter. Assigned in shard-local program order, so the key sequence
    // is independent of thread count.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(pkt.src) << 44) | ctr_++;
    assert((ctr_ & (std::uint64_t{1} << 44)) == 0 && "cross counter overflow");
    const int dst_shard = cl_->shard_of_[pkt.dst];
    Ring& r = cl_->ring(shard_, dst_shard);
    const std::size_t need = sizeof(CrossMsg) + pkt.payload.size();
    bool pushed = false;
    if (need <= r.ring.slot_bytes()) {
      if (std::byte* slot = r.ring.try_push_slot()) {
        encode(slot, pkt, head, key);
        r.ring.commit_push();
        pushed = true;
      }
    }
    if (!pushed) {
      std::lock_guard<std::mutex> lock(r.mu);
      if (r.pool.empty()) {
        r.spill.emplace_back(need);
      } else {
        r.spill.push_back(std::move(r.pool.back()));
        r.pool.pop_back();
        if (r.spill.back().size() < need) r.spill.back().resize(need);
      }
      encode(r.spill.back().data(), pkt, head, key);
      r.spilled.store(static_cast<std::uint32_t>(r.spill.size()),
                      std::memory_order_release);
    }
    // After the commit: the bucket must never cover a message the
    // destination cannot yet see.
    cl_->par_.note_emission(shard_, dst_shard, head);
  }

 private:
  ParallelCluster* cl_;
  int shard_;
  std::uint64_t ctr_ = 0;
};

ParallelCluster::ParallelCluster(const ClusterParams& p, int n_shards)
    : params_(p),
      n_shards_(std::clamp(n_shards, 1, p.n_hosts)),
      shard_of_(make_shard_of(p.n_hosts, n_shards_)),
      par_(n_shards_, make_lookahead(p, shard_of_, n_shards_)) {
  // Host range [shard_begin_[s], shard_begin_[s+1]) owned by shard s, and
  // the static head-latency table the emission-bound hook adds to dynamic
  // uplink state: sl_host_[a][d] = min over hosts b of shard d of the
  // source-side path latency a -> b.
  shard_begin_.assign(n_shards_ + 1, p.n_hosts);
  for (int i = p.n_hosts - 1; i >= 0; --i) shard_begin_[shard_of_[i]] = i;
  const Topo topo(p.fabric, p.n_hosts);
  const sim::Ps unit = p.fabric.link_latency + p.fabric.switch_latency;
  sl_host_.assign(static_cast<std::size_t>(p.n_hosts) * n_shards_,
                  std::numeric_limits<sim::Ps>::max());
  for (int a = 0; a < p.n_hosts; ++a) {
    for (int b = 0; b < p.n_hosts; ++b) {
      if (shard_of_[b] == shard_of_[a]) continue;
      const sim::Ps v = static_cast<sim::Ps>(topo.hops(a, b)) * unit;
      sim::Ps& cell =
          sl_host_[static_cast<std::size_t>(a) * n_shards_ + shard_of_[b]];
      if (v < cell) cell = v;
    }
  }

  // Slot must fit the largest wire payload a NIC will send (MTU payload +
  // the messaging layer's packet header); anything bigger takes the spill
  // path, so this is a fast-path size, not a correctness limit.
  const std::size_t slot_bytes = sizeof(CrossMsg) + p.nic.mtu_payload + 256;
  rings_.resize(static_cast<std::size_t>(n_shards_) * n_shards_);
  for (int s = 0; s < n_shards_; ++s) {
    for (int t = 0; t < n_shards_; ++t) {
      if (s != t) {
        rings_[s * n_shards_ + t] =
            std::make_unique<Ring>(kRingSlots, slot_bytes);
      }
    }
  }

  // Pre-size each shard's event heap for the deepest cross-ring drain the
  // ring/spill pools themselves are pre-sized for: every inbound peer can
  // deliver a full ring (kRingSlots) plus the pre-warmed spill allowance
  // (4x slots) in one batch, and each drained message becomes one
  // scheduled event. How full the rings actually get depends on
  // wall-clock thread skew, so growing on demand would allocate at an
  // unpredictable point mid-measurement.
  const std::size_t drain_peak =
      4096 + static_cast<std::size_t>(n_shards_ - 1) * 5 * kRingSlots;

  fabrics_.reserve(n_shards_);
  ports_.reserve(n_shards_);
  for (int s = 0; s < n_shards_; ++s) {
    par_.shard(s).reserve_events(drain_peak);
    fabrics_.push_back(
        std::make_unique<Fabric>(par_.shard(s), p.fabric, p.n_hosts));
    ports_.push_back(std::make_unique<Port>(this, s));
    fabrics_[s]->set_parallel(ports_[s].get(), shard_of_.data(), s,
                              drain_peak);
    par_.set_drain(s, [this, s] { drain_into(s); });
    par_.set_emission_bound(
        s, [this, s](sim::Ps e, sim::Ps* out) { emission_bound(s, e, out); });
    // Minimum reaction time of a shard to an inbound packet: every causal
    // response flows through Nic::rx_wire_program, which charges
    // per_packet_rx before anything downstream can observe the packet. In
    // clean mode the response emission additionally pays a fresh
    // tx_inject per_packet_tx; with reliable links an arriving ack can
    // release a window-blocked sender in the same timestamp as its rx
    // processing, so only the rx term is safe there.
    par_.set_reaction_gap(
        s, p.nic.per_packet_rx +
               (p.nic.reliable_link ? sim::Ps{0} : p.nic.per_packet_tx));
  }

  nodes_.reserve(p.n_hosts);
  for (int i = 0; i < p.n_hosts; ++i) {
    const int s = shard_of_[i];
    nodes_.push_back(
        std::make_unique<Node>(par_.shard(s), i, p, *fabrics_[s]));
  }

  // A one-shard cluster grows its buffer pool on demand. FM 2.x credits
  // and paced extraction bound how many blocks are live at once, so the
  // peak is a function of (params, seed) alone, and a warm-up wave of the
  // workload reaches it. With several shards the peak also depends on
  // cross-shard thread timing: a warm-up wave cannot reach it
  // deterministically, so each shard's pool is pre-warmed to the structural
  // worst case across the packet size classes, which keeps the
  // steady-state data path off the allocator at any interleaving.
  if (n_shards_ > 1) {
    for (int s = 0; s < n_shards_; ++s) {
      const int hosts = shard_begin_[s + 1] - shard_begin_[s];
      const int per_class = 128 * (hosts + 1);
      std::vector<BufferRef> warm;
      warm.reserve(static_cast<std::size_t>(per_class));
      for (std::size_t sz = 64; sz / 2 < slot_bytes; sz *= 2) {
        warm.clear();
        for (int i = 0; i < per_class; ++i) {
          warm.push_back(fabrics_[s]->pool().acquire_ref(sz));
        }
      }
    }
  }
  expose_metrics();
}

ParallelCluster::~ParallelCluster() = default;

void ParallelCluster::drain_into(int dst_shard) {
  Fabric& f = *fabrics_[dst_shard];
  for (int s = 0; s < n_shards_; ++s) {
    if (s == dst_shard) continue;
    Ring& r = ring(s, dst_shard);
    std::uint64_t n = 0;
    while (const std::byte* slot = r.ring.front()) {
      decode(slot, f);
      r.ring.pop();
      ++n;
    }
    if (r.spilled.load(std::memory_order_acquire) != 0) {
      {
        std::lock_guard<std::mutex> lock(r.mu);
        r.drained.swap(r.spill);
        r.spilled.store(0, std::memory_order_release);
      }
      for (const auto& buf : r.drained) decode(buf.data(), f);
      n += r.drained.size();
      {
        std::lock_guard<std::mutex> lock(r.mu);
        for (auto& buf : r.drained) r.pool.push_back(std::move(buf));
      }
      r.drained.clear();
    }
    if (n != 0) par_.note_drained(dst_shard, s, n);
  }
}

// Lower bound on the head-arrival time of any cross-shard packet this
// shard can still emit, per destination shard, given that no local event
// runs before `e`. Two dynamic terms sharpen the static latency:
//
//   - The source host's uplink next-free time: every emission serializes
//     through Fabric::transmit, and SerialResource reservations are
//     monotone. While a host streams, its uplink sits reserved several
//     microseconds ahead of the clock.
//   - The NIC wire floor: the NIC is the only transmit caller, and a
//     fresh injection trails the event that triggers it by at least the
//     per-packet tx overhead (or the ack/timeout windows in reliable
//     mode) — Nic::wire_floor tracks the armed mid-pipeline states where
//     that gap has already partly elapsed. This is what keeps quanta
//     wider than the static 850 ns even when senders sit credit-blocked
//     with idle uplinks.
//
// max of the two, plus the metric-closed path latency, per source host;
// min over the shard's hosts per destination.
void ParallelCluster::emission_bound(int shard, sim::Ps e,
                                     sim::Ps* out) const {
  constexpr sim::Ps kNever = std::numeric_limits<sim::Ps>::max();
  for (int d = 0; d < n_shards_; ++d) out[d] = kNever;
  const Fabric& f = *fabrics_[shard];
  for (int a = shard_begin_[shard]; a < shard_begin_[shard + 1]; ++a) {
    const sim::Ps base =
        std::max(f.uplink_free(a), nodes_[a]->nic().wire_floor(e));
    const sim::Ps* sl = &sl_host_[static_cast<std::size_t>(a) * n_shards_];
    for (int d = 0; d < n_shards_; ++d) {
      if (sl[d] == kNever) continue;  // own shard
      const sim::Ps v = base > kNever - sl[d] ? kNever : base + sl[d];
      if (v < out[d]) out[d] = v;
    }
  }
}

ParallelCluster::RunResult ParallelCluster::run(int n_threads) {
  if (n_threads <= 0) {
    n_threads = env_threads();
    if (n_threads <= 0) n_threads = 1;
  }
  sim::ParallelEngine::RunResult r = par_.run(n_threads);
  return RunResult{r.events, r.windows, r.barrier_crossings, r.pending_roots};
}

int ParallelCluster::env_threads() {
  const char* v = std::getenv("FMX_THREADS");
  if (v == nullptr) return 0;
  const int n = std::atoi(v);
  return n > 0 ? n : 0;
}

void ParallelCluster::enable_tracing(std::size_t capacity_events) {
  for (auto& f : fabrics_) f->tracer().enable(capacity_events);
}

std::vector<trace::Event> ParallelCluster::merged_trace() const {
  std::vector<std::vector<trace::Event>> streams;
  streams.reserve(fabrics_.size());
  for (const auto& f : fabrics_) streams.push_back(f->tracer().events());
  return trace::merge_streams(streams);
}

Fabric::Stats ParallelCluster::fabric_stats() const {
  Fabric::Stats out;
  for (const auto& f : fabrics_) {
    const Fabric::Stats& s = f->stats();
    out.packets += s.packets;
    out.payload_bytes += s.payload_bytes;
    out.corrupted += s.corrupted;
    out.dropped += s.dropped;
    out.duplicated += s.duplicated;
    out.delayed += s.delayed;
  }
  return out;
}

// Bind the live hardware counters (fabric, pool, per-node NIC and host
// ledger) into the tracer metrics registries so tests and benches can query
// them by name. Views only — the hot paths keep bumping the same plain
// fields. Scoped per shard: every shard's tracer sees its own fabric
// replica, pool, and the nodes it owns.
void ParallelCluster::expose_metrics() {
  for (int s = 0; s < n_shards_; ++s) {
    trace::MetricsRegistry& m = fabrics_[s]->tracer().metrics();
    const Fabric::Stats& fs = fabrics_[s]->stats();
    m.expose("fabric.packets", &fs.packets);
    m.expose("fabric.payload_bytes", &fs.payload_bytes);
    m.expose("fabric.corrupted", &fs.corrupted);
    m.expose("fabric.dropped", &fs.dropped);
    m.expose("fabric.duplicated", &fs.duplicated);
    m.expose("fabric.delayed", &fs.delayed);
    const BufferPool::Stats& ps = fabrics_[s]->pool().stats();
    m.expose("pool.acquires", &ps.acquires);
    m.expose("pool.hits", &ps.pool_hits);
    m.expose("pool.misses", &ps.fresh_allocs);
    m.expose("pool.releases", &ps.releases);
  }
  for (const auto& n : nodes_) {
    trace::MetricsRegistry& m =
        fabrics_[shard_of_[n->id()]]->tracer().metrics();
    const std::string pre = "node" + std::to_string(n->id()) + ".";
    const Nic::Stats& ns = n->nic().stats();
    m.expose(pre + "nic.tx_packets", &ns.tx_packets);
    m.expose(pre + "nic.rx_packets", &ns.rx_packets);
    m.expose(pre + "nic.crc_dropped", &ns.crc_dropped);
    m.expose(pre + "nic.retransmissions", &ns.retransmissions);
    m.expose(pre + "nic.acks_sent", &ns.acks_sent);
    m.expose(pre + "nic.seq_dropped", &ns.seq_dropped);
    m.expose(pre + "nic.coll_rx_packets", &ns.coll_rx_packets);
    m.expose(pre + "nic.coll_combines", &ns.coll_combines);
    m.expose(pre + "nic.coll_forwards", &ns.coll_forwards);
    m.expose(pre + "nic.coll_completions", &ns.coll_completions);
    m.expose(pre + "nic.coll_orphaned", &ns.coll_orphaned);
    m.expose(pre + "nic.coll_stale", &ns.coll_stale);
    const sim::CostLedger& hl = n->host().ledger();
    m.expose(pre + "host.copies", hl.copies_cell());
    m.expose(pre + "host.copied_bytes", hl.copied_bytes_cell());
    m.expose(pre + "host.pool_misses", hl.allocs_cell());
    m.expose(pre + "host.pool_miss_bytes", hl.alloc_bytes_cell());
    const RegCache::Stats& rs = n->host().reg_cache().stats();
    m.expose(pre + "regcache.hits", &rs.hits);
    m.expose(pre + "regcache.misses", &rs.misses);
    m.expose(pre + "regcache.evictions", &rs.evictions);
    m.expose(pre + "regcache.coalesces", &rs.coalesces);
    m.expose(pre + "regcache.pinned_bytes", &rs.pinned_bytes);
  }
}

}  // namespace fmx::net
