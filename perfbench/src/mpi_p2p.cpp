// mpi_p2p: MPI-FM 2.x point to point on the paper's two-node platform.
//
// One seeded bimodal size mix (80 % eager-sized, 20 % rendezvous/RDMA-sized)
// runs through three phases on the same two endpoints:
//   pingpong  one message outstanding; RTT/2 is the one-way latency
//   stream    isend windows over pre-posted irecvs; payload / simulated time
//   raw       Endpoint::send + handler receive, the FM 2.x reference the
//             MPI stream is measured against (the paper's Fig. 6 efficiency)
// Receive buffers are fixed slots of a pool twice the pin-down budget, drawn
// at random, so the registration cache sees hits, misses and evictions.
// Every received payload is checked against the CRC of what was sent.
#include <algorithm>
#include <cstring>
#include <memory>

#include "common/crc32.hpp"
#include "mpi/mpi_fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "myrinet/params.hpp"
#include "stats.hpp"
#include "trace/export.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using fmx::ByteSpan;
using fmx::MutByteSpan;
using fmx::sim::Ps;
using fmx::sim::Task;

constexpr std::size_t kMsgs = 2000;
constexpr std::size_t kWindow = 8;
constexpr std::size_t kSlots = 64;
constexpr std::size_t kSlotBytes = 128 * 1024;  // 64 slots = 2x the 4 MB budget
constexpr std::size_t kEagerThreshold = 1024;
constexpr fmx::fm2::HandlerId kRawHandler = 9;

struct Inputs {
  std::vector<std::size_t> sizes;
  std::vector<std::uint32_t> send_slot;
  std::vector<std::uint32_t> recv_slot;  // distinct within each stream window
  std::vector<std::uint32_t> crc;        // of the payload message i carries
};

struct Rank {
  std::unique_ptr<std::byte[]> send{new std::byte[kSlots * kSlotBytes]};
  std::unique_ptr<std::byte[]> recv{new std::byte[kSlots * kSlotBytes]};
};

struct State {
  const Inputs& in;
  Rank* rank[2];
  PassResult& r;
  std::vector<Ps> rtt;
  Ps stream_end = 0;
  Ps raw_end = 0;
  std::size_t raw_started = 0;
  std::size_t raw_done = 0;
  // Wall seconds spent in verify(): the check is not the system under
  // test, so it is taken out of the measured time.
  double check_s = 0;

  ByteSpan payload(int who, std::size_t i) const {
    return {rank[who]->send.get() + in.send_slot[i] * kSlotBytes,
            in.sizes[i]};
  }
  MutByteSpan landing(int who, std::size_t i) const {
    return {rank[who]->recv.get() + in.recv_slot[i] * kSlotBytes,
            in.sizes[i]};
  }
  void verify(int who, std::size_t i, std::size_t count) {
    const auto t0 = Clock::now();
    const bool ok = count == in.sizes[i] &&
                    fmx::crc32(landing(who, i)) == in.crc[i];
    r.check(ok, ok ? std::string()
                   : "mpi_p2p: payload " + std::to_string(i) + " at rank " +
                         std::to_string(who) + " does not match what was sent");
    check_s += seconds_since(t0);
  }
};

/// The message schedule: sizes and buffer slots.
Inputs make_schedule(std::uint64_t seed) {
  Inputs in;
  in.sizes = bimodal_sizes(kMsgs, seed);
  SplitMix rng(seed ^ 0x5eedf00dull);
  std::vector<std::uint32_t> deck(kSlots);
  for (std::size_t i = 0; i < kMsgs; ++i) {
    if (i % kWindow == 0) {
      for (std::uint32_t k = 0; k < kSlots; ++k) deck[k] = k;
    }
    // Partial Fisher-Yates: the slots of one window never repeat.
    const std::size_t used = i % kWindow;
    std::swap(deck[used], deck[used + rng.below(kSlots - used)]);
    in.recv_slot.push_back(deck[used]);
    in.send_slot.push_back(static_cast<std::uint32_t>(rng.below(kSlots)));
  }
  return in;
}

/// The CRC each message's payload must arrive with.
void expect_crcs(Inputs& in, const Rank& filled) {
  in.crc.clear();
  for (std::size_t i = 0; i < kMsgs; ++i) {
    in.crc.push_back(fmx::crc32(
        ByteSpan{filled.send.get() + in.send_slot[i] * kSlotBytes,
                 in.sizes[i]}));
  }
}

void fill(std::byte* p, std::size_t n, std::uint64_t seed) {
  SplitMix rng(seed);
  for (std::size_t off = 0; off < n; off += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(p + off, &v, std::min<std::size_t>(8, n - off));
  }
}

Ps now(fmx::mpi::MpiFm2& c) { return c.fm().host().engine().now(); }

Task<void> pingpong_client(fmx::mpi::MpiFm2& c, State& s) {
  for (std::size_t i = 0; i < kMsgs; ++i) {
    const Ps t0 = now(c);
    co_await c.send(s.payload(0, i), 1, 0);
    fmx::mpi::Status st;
    co_await c.recv(s.landing(0, i), 1, 0, &st);
    s.rtt[i] = now(c) - t0;
    s.verify(0, i, st.count);
  }
}

Task<void> pingpong_server(fmx::mpi::MpiFm2& c, State& s) {
  for (std::size_t i = 0; i < kMsgs; ++i) {
    fmx::mpi::Status st;
    co_await c.recv(s.landing(1, i), 0, 0, &st);
    s.verify(1, i, st.count);
    co_await c.send(s.payload(1, i), 0, 0);
  }
}

Task<void> stream_sender(fmx::mpi::MpiFm2& c, State& s) {
  std::vector<fmx::mpi::Request> reqs;
  reqs.reserve(kWindow);
  for (std::size_t b = 0; b < kMsgs; b += kWindow) {
    reqs.clear();
    for (std::size_t i = b; i < std::min(kMsgs, b + kWindow); ++i) {
      reqs.push_back(co_await c.isend(s.payload(0, i), 1, 1));
    }
    co_await c.waitall(reqs);
  }
}

Task<void> stream_receiver(fmx::mpi::MpiFm2& c, State& s) {
  std::vector<fmx::mpi::Request> reqs;
  reqs.reserve(kWindow);
  for (std::size_t b = 0; b < kMsgs; b += kWindow) {
    reqs.clear();
    const std::size_t end = std::min(kMsgs, b + kWindow);
    for (std::size_t i = b; i < end; ++i) {
      reqs.push_back(co_await c.irecv(s.landing(1, i), 0, 1));
    }
    co_await c.waitall(reqs);
    for (std::size_t i = b; i < end; ++i) {
      s.verify(1, i, reqs[i - b].status().count);
    }
  }
  s.stream_end = now(c);
}

Task<void> raw_sender(fmx::fm2::Endpoint& ep, State& s) {
  for (std::size_t i = 0; i < kMsgs; ++i) {
    co_await ep.send(1, kRawHandler, s.payload(0, i));
  }
}

Task<void> raw_receiver(fmx::fm2::Endpoint& ep, State& s) {
  co_await ep.poll_until([&s] { return s.raw_done == kMsgs; });
  s.raw_end = ep.host().engine().now();
}

double mbs(double bytes, Ps t) {
  return t > 0 ? bytes / fmx::sim::to_seconds(t) / 1e6 : 0.0;
}

}  // namespace

PassResult run_mpi_p2p(const PassOptions& o, Spans& spans) {
  PassResult r;
  Spans::Scope pass(spans, "pass");
  // The payloads and their expected CRCs are the checker's inputs, not
  // set-up of the system under test: they are made outside setup_s. The
  // buffers live for the whole process, so every pass refills the same
  // memory instead of mapping it afresh.
  static Rank ranks[2];
  {
    Spans::Scope s(spans, "inputs");
    fill(ranks[0].send.get(), kSlots * kSlotBytes, o.seed);
    std::memcpy(ranks[1].send.get(), ranks[0].send.get(), kSlots * kSlotBytes);
    std::memset(ranks[0].recv.get(), 0, kSlots * kSlotBytes);
    std::memset(ranks[1].recv.get(), 0, kSlots * kSlotBytes);
  }
  const auto setup_t0 = Clock::now();
  auto setup = std::make_unique<Spans::Scope>(spans, "setup");

  std::unique_ptr<fmx::net::ParallelCluster> cl;
  {
    Spans::Scope s(spans, "setup.cluster");
    cl = std::make_unique<fmx::net::ParallelCluster>(
        fmx::net::ppro_fm2_cluster(2), 1);
  }
  std::vector<std::unique_ptr<fmx::fm2::Endpoint>> eps;
  {
    Spans::Scope s(spans, "setup.endpoints");
    for (int i = 0; i < 2; ++i) {
      eps.push_back(std::make_unique<fmx::fm2::Endpoint>(cl->node(i),
                                                         cl->fabric_of(i)));
    }
  }
  std::vector<std::unique_ptr<fmx::mpi::MpiFm2>> mpi;
  {
    Spans::Scope s(spans, "setup.comms");
    fmx::mpi::MpiFm2Options opt;
    opt.eager_threshold = kEagerThreshold;
    opt.rdma = true;
    for (int i = 0; i < 2; ++i) {
      mpi.push_back(std::make_unique<fmx::mpi::MpiFm2>(*eps[i], opt));
    }
  }
  Inputs in;
  {
    Spans::Scope s(spans, "setup.schedule");
    in = make_schedule(o.seed);
  }
  State st{in, {&ranks[0], &ranks[1]}, r, std::vector<Ps>(kMsgs)};
  eps[1]->register_handler(
      kRawHandler,
      [&st](fmx::fm2::RecvStream& rs, int) -> fmx::fm2::HandlerTask {
        const std::size_t i = st.raw_started++;
        const std::size_t n = rs.msg_bytes();
        if (i >= kMsgs || n != st.in.sizes[i]) {
          st.r.check(false, "mpi_p2p: unexpected raw message");
          co_await rs.skip(n);
          co_return;
        }
        co_await rs.receive(st.landing(1, i));
        st.verify(1, i, n);
        ++st.raw_done;
      });
  if (o.traced) cl->enable_tracing();
  setup.reset();
  r.setup_s = seconds_since(setup_t0);
  {
    Spans::Scope s(spans, "inputs");
    expect_crcs(in, ranks[0]);
  }

  std::vector<fmx::fm2::Endpoint*> ep_ptrs{eps[0].get(), eps[1].get()};
  RunTotals mpi_rt, raw_rt;
  Ps stream_t0 = 0, raw_t0 = 0;
  double mpi_check_s = 0;
  Counters c0, c1;
  {
    Spans::Scope m(spans, "measure");
    c0 = snapshot(*cl, ep_ptrs);
    cl->spawn_on(0, pingpong_client(*mpi[0], st));
    cl->spawn_on(1, pingpong_server(*mpi[1], st));
    {
      Spans::Scope s(spans, "run");
      mpi_rt.add(timed_run(*cl, 1));
    }
    stream_t0 = cl->shard_engine(0).now();
    cl->spawn_on(0, stream_sender(*mpi[0], st));
    cl->spawn_on(1, stream_receiver(*mpi[1], st));
    {
      Spans::Scope s(spans, "run");
      mpi_rt.add(timed_run(*cl, 1));
    }
    c1 = snapshot(*cl, ep_ptrs);
    mpi_check_s = st.check_s;
    raw_t0 = cl->shard_engine(0).now();
    cl->spawn_on(0, raw_sender(*eps[0], st));
    cl->spawn_on(1, raw_receiver(*eps[1], st));
    {
      Spans::Scope s(spans, "run");
      raw_rt = timed_run(*cl, 1);
    }
  }
  r.check(mpi_rt.pending_roots == 0 && raw_rt.pending_roots == 0,
          "mpi_p2p: unfinished tasks (pending_roots != 0)");
  r.check(st.raw_done == kMsgs, "mpi_p2p: raw stream incomplete");

  const double n = static_cast<double>(kMsgs);
  const double mpi_msgs = 3 * n;  // ping + pong + stream
  mpi_rt.wall_s -= mpi_check_s;
  r.ops_per_s.push_back(mpi_msgs / mpi_rt.wall_s);

  double bytes = 0;
  std::vector<double> rtt, lat, eager, rdzv;
  Digest dg;
  for (std::size_t i = 0; i < kMsgs; ++i) {
    bytes += static_cast<double>(in.sizes[i]);
    rtt.push_back(fmx::sim::to_us(st.rtt[i]));
    lat.push_back(rtt.back() / 2);
    (in.sizes[i] <= kEagerThreshold ? eager : rdzv).push_back(lat.back());
    dg.mix(st.rtt[i]);
  }
  const Ps stream_t = st.stream_end - stream_t0;
  const Ps raw_t = st.raw_end - raw_t0;
  dg.mix(stream_t);
  dg.mix(raw_t);
  dg.mix(mpi_rt.events);
  dg.mix(raw_rt.events);
  r.digest = dg.h;

  r.sim["msg_lat_p50_us"] = quantile(lat, 0.50);
  r.sim["msg_lat_p99_us"] = quantile(lat, 0.99);
  r.sim["iter_p50_us"] = quantile(rtt, 0.50);
  r.sim["iter_p99_us"] = quantile(rtt, 0.99);
  r.samples["msg_lat"] = r.samples["iter"] = lat.size();
  r.sim["stream_mbs"] = mbs(bytes, stream_t);
  r.sim["fm2.raw_stream_mbs"] = mbs(bytes, raw_t);
  r.sim["mpi.eff_pct"] =
      100.0 * per(r.sim["stream_mbs"], r.sim["fm2.raw_stream_mbs"]);
  r.sim["mpi.eager_lat_p50_us"] = median(eager);
  r.sim["mpi.rdzv_lat_p50_us"] = median(rdzv);
  r.samples["mpi.eager_lat"] = eager.size();
  r.samples["mpi.rdzv_lat"] = rdzv.size();
  double unexpected = 0, arrivals = 0;
  for (const auto& c : mpi) {
    unexpected += static_cast<double>(c->stats().unexpected);
    arrivals += static_cast<double>(c->stats().unexpected +
                                    c->stats().posted_hits);
  }
  r.sim["mpi.unexpected_share"] = per(unexpected, arrivals);

  const Counters d = c1 - c0;
  add_layer_counts(r, d, mpi_rt, mpi_msgs, mpi_msgs);
  // Every size of the large mode crosses the threshold in all three MPI
  // messages it makes (ping, pong, stream).
  r.sim["nic.rdma_chunks_per_msg"] =
      per(static_cast<double>(d.rdma_rx_chunks), 3.0 * rdzv.size());
  r.sim["copy.rdma_bytes_share"] =
      per(static_cast<double>(d.copies.rdma_bytes), 3 * bytes);

  if (o.traced && !o.chrome_trace_path.empty()) {
    Spans::Scope s(spans, "trace.export");
    r.check(fmx::trace::write_chrome_trace(cl->shard_fabric(0).tracer(),
                                           o.chrome_trace_path),
            "mpi_p2p: could not write " + o.chrome_trace_path);
  }
  return r;
}

}  // namespace perfbench
