// coll_bsp: a bulk-synchronous application on a 256-host fat tree with the
// collectives offloaded to the NIC control program (radix 6).
//
// Each iteration (superstep) on every rank: a compute phase, a 64 B
// ring-halo sendrecv, then one collective in rotation barrier -> bcast
// 256 B -> reduce 8 doubles -> allreduce 8 doubles (root 0). The seed draws
// the payloads, the reduction operands and each rank's compute time per
// iteration (uniform 4-6 us, mean 5 us: the load imbalance a real BSP code
// has). Compute comes first so the halo exchange absorbs the neighbours'
// imbalance, as it does in a real code; right after a collective every
// rank would start the exchange in lockstep. Operands are multiples of 1/8
// below 2^10, so every sum is exact in any combining order and the check
// compares bit for bit.
#include <cstring>
#include <memory>

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

constexpr int kRanks = 256;
constexpr int kIters = 200;
// The iterations run as this many back-to-back segments (each a cl.run()
// to quiescence), each one wall-clock sample of ops/s.
constexpr int kSegments = 4;
constexpr std::size_t kHaloBytes = 64;
constexpr std::size_t kBcastBytes = 256;
constexpr std::size_t kReduceDoubles = 8;
constexpr int kCollKinds = 4;  // barrier, bcast, reduce, allreduce
const char* const kCollNames[kCollKinds] = {"barrier", "bcast", "reduce",
                                            "allreduce"};

struct Inputs {
  std::uint64_t seed = 0;
  std::vector<Ps> compute;              // [rank * kIters + iter]
  std::vector<double> operand;          // [(iter * kRanks + rank) * 8 + j]
  std::vector<double> sum;              // [iter * 8 + j]
  std::vector<std::byte> bcast;         // [iter * kBcastBytes + b]

  const double* operand_of(int rank, int iter) const {
    return &operand[(static_cast<std::size_t>(iter) * kRanks + rank) *
                    kReduceDoubles];
  }
};

void halo_bytes(std::uint64_t seed, int src, int iter, std::byte* out) {
  SplitMix rng(seed ^ (static_cast<std::uint64_t>(src) << 32) ^
               static_cast<std::uint64_t>(iter));
  for (std::size_t off = 0; off < kHaloBytes; off += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(out + off, &v, 8);
  }
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  SplitMix rng(seed ^ 0xb5bull);
  in.compute.resize(static_cast<std::size_t>(kRanks) * kIters);
  for (Ps& c : in.compute) c = fmx::sim::ns(4000 + 2000 * rng.uniform());
  in.operand.resize(static_cast<std::size_t>(kIters) * kRanks *
                    kReduceDoubles);
  in.sum.assign(static_cast<std::size_t>(kIters) * kReduceDoubles, 0.0);
  for (int it = 0; it < kIters; ++it) {
    for (int rk = 0; rk < kRanks; ++rk) {
      for (std::size_t j = 0; j < kReduceDoubles; ++j) {
        const double v =
            (static_cast<double>(rng.below(2001)) - 1000.0) / 8.0;
        in.operand[(static_cast<std::size_t>(it) * kRanks + rk) *
                       kReduceDoubles + j] = v;
        in.sum[static_cast<std::size_t>(it) * kReduceDoubles + j] += v;
      }
    }
  }
  in.bcast.resize(static_cast<std::size_t>(kIters) * kBcastBytes);
  for (std::byte& b : in.bcast) b = static_cast<std::byte>(rng.next());
  return in;
}

struct RankOut {
  std::vector<double> iter_us;
  std::vector<double> halo_us;
  std::vector<double> coll_us[kCollKinds];
};

struct State {
  const Inputs& in;
  PassResult& r;
  std::vector<RankOut> out;
  Ps t_end = 0;
};

Task<void> join(fmx::mpi::MpiFm2& c) {
  // The first offloaded collective joins the NIC group.
  co_await c.barrier();
}

Task<void> rank_main(fmx::mpi::MpiFm2& c, State& s, int first, int last) {
  const int me = c.rank();
  const int right = (me + 1) % kRanks;
  const int left = (me + kRanks - 1) % kRanks;
  auto& eng = c.fm().host().engine();
  RankOut& out = s.out[me];
  std::byte send[kHaloBytes], recv[kHaloBytes], want[kHaloBytes];
  std::byte bcast[kBcastBytes];
  double red[kReduceDoubles];
  for (int it = first; it < last; ++it) {
    const Ps t_iter = eng.now();
    co_await c.host_compute(s.in.compute[static_cast<std::size_t>(me) *
                                             kIters + it]);
    const Ps t_halo = eng.now();
    halo_bytes(s.in.seed, me, it, send);
    fmx::mpi::Status st;
    co_await c.sendrecv(ByteSpan{send, kHaloBytes}, right, it,
                        MutByteSpan{recv, kHaloBytes}, left, it, &st);
    out.halo_us.push_back(fmx::sim::to_us(eng.now() - t_halo));
    halo_bytes(s.in.seed, left, it, want);
    s.r.check(st.count == kHaloBytes &&
                  std::memcmp(recv, want, kHaloBytes) == 0,
              "coll_bsp: halo payload mismatch");

    const Ps t_coll = eng.now();
    const int kind = it % kCollKinds;
    const std::byte* bc_want = &s.in.bcast[static_cast<std::size_t>(it) *
                                           kBcastBytes];
    const double* sum = &s.in.sum[static_cast<std::size_t>(it) *
                                  kReduceDoubles];
    switch (kind) {
      case 0:
        co_await c.barrier();
        break;
      case 1:
        if (me == 0) std::memcpy(bcast, bc_want, kBcastBytes);
        else std::memset(bcast, 0, kBcastBytes);
        co_await c.bcast(MutByteSpan{bcast, kBcastBytes}, 0);
        s.r.check(std::memcmp(bcast, bc_want, kBcastBytes) == 0,
                  "coll_bsp: bcast payload mismatch");
        break;
      default:
        std::memcpy(red, s.in.operand_of(me, it), sizeof(red));
        if (kind == 2) {
          co_await c.reduce_sum(std::span<double>{red, kReduceDoubles}, 0);
        } else {
          co_await c.allreduce_sum(std::span<double>{red, kReduceDoubles});
        }
        if (kind == 3 || me == 0) {
          s.r.check(std::memcmp(red, sum, sizeof(red)) == 0,
                    "coll_bsp: reduce/allreduce result is not the exact sum");
        }
    }
    out.coll_us[kind].push_back(fmx::sim::to_us(eng.now() - t_coll));
    out.iter_us.push_back(fmx::sim::to_us(eng.now() - t_iter));
  }
  if (me == 0) s.t_end = eng.now();
}

}  // namespace

PassResult run_coll_bsp(const PassOptions& o, Spans& spans) {
  PassResult r;
  Spans::Scope pass(spans, "pass");
  const auto setup_t0 = Clock::now();
  auto setup = std::make_unique<Spans::Scope>(spans, "setup");

  std::unique_ptr<fmx::net::ParallelCluster> cl;
  {
    Spans::Scope s(spans, "setup.cluster");
    cl = std::make_unique<fmx::net::ParallelCluster>(
        fmx::net::fat_tree_cluster(kRanks), 1);
  }
  std::vector<std::unique_ptr<fmx::fm2::Endpoint>> eps;
  std::vector<fmx::fm2::Endpoint*> ep_ptrs;
  {
    Spans::Scope s(spans, "setup.endpoints");
    for (int i = 0; i < kRanks; ++i) {
      eps.push_back(std::make_unique<fmx::fm2::Endpoint>(cl->node(i),
                                                         cl->fabric_of(i)));
      ep_ptrs.push_back(eps.back().get());
    }
  }
  std::vector<std::unique_ptr<fmx::mpi::MpiFm2>> mpi;
  {
    Spans::Scope s(spans, "setup.comms");
    fmx::mpi::MpiFm2Options opt;
    opt.nic_collectives = true;
    opt.coll_radix = 6;
    for (int i = 0; i < kRanks; ++i) {
      mpi.push_back(std::make_unique<fmx::mpi::MpiFm2>(*eps[i], opt));
    }
  }
  Inputs in;
  {
    Spans::Scope s(spans, "setup.schedule");
    in = make_inputs(o.seed);
  }
  RunTotals join_rt;
  {
    Spans::Scope s(spans, "setup.join");
    for (int i = 0; i < kRanks; ++i) cl->spawn_on(i, join(*mpi[i]));
    join_rt = timed_run(*cl, 1);
  }
  r.check(join_rt.pending_roots == 0,
          "coll_bsp: NIC group join left pending_roots != 0");
  if (o.traced) cl->enable_tracing();
  setup.reset();
  r.setup_s = seconds_since(setup_t0);

  State st{in, r, std::vector<RankOut>(kRanks)};
  for (RankOut& ro : st.out) {
    ro.iter_us.reserve(kIters);
    ro.halo_us.reserve(kIters);
    for (auto& v : ro.coll_us) v.reserve(kIters / kCollKinds + 1);
  }
  RunTotals rt;
  Counters d;
  Ps t0 = 0;
  {
    Spans::Scope m(spans, "measure");
    const Counters c0 = snapshot(*cl, ep_ptrs);
    t0 = cl->shard_engine(0).now();
    for (int seg = 0; seg < kSegments; ++seg) {
      const int first = seg * kIters / kSegments;
      const int last = (seg + 1) * kIters / kSegments;
      for (int i = 0; i < kRanks; ++i) {
        cl->spawn_on(i, rank_main(*mpi[i], st, first, last));
      }
      Spans::Scope s(spans, "run");
      const RunTotals seg_rt = timed_run(*cl, 1);
      r.ops_per_s.push_back((last - first) / seg_rt.wall_s);
      rt.add(seg_rt);
    }
    d = snapshot(*cl, ep_ptrs) - c0;
  }
  r.check(rt.pending_roots == 0, "coll_bsp: pending_roots != 0");

  std::vector<double> iters, halos;
  Digest dg;
  bool complete = true;
  for (const RankOut& ro : st.out) {
    complete = complete && ro.iter_us.size() == kIters;
    iters.insert(iters.end(), ro.iter_us.begin(), ro.iter_us.end());
    halos.insert(halos.end(), ro.halo_us.begin(), ro.halo_us.end());
    for (double v : ro.iter_us) dg.mix(static_cast<std::uint64_t>(v * 1e6));
  }
  r.check(complete, "coll_bsp: a rank did not finish every iteration");
  dg.mix(rt.events);
  dg.mix(st.t_end - t0);
  r.digest = dg.h;

  r.sim["iter_p50_us"] = quantile(iters, 0.50);
  r.sim["iter_p99_us"] = quantile(iters, 0.99);
  r.sim["msg_lat_p50_us"] = quantile(halos, 0.50);
  r.sim["msg_lat_p99_us"] = quantile(halos, 0.99);
  r.sim["mpi.sendrecv_p50_us"] = r.sim["msg_lat_p50_us"];
  r.samples["iter"] = iters.size();
  r.samples["msg_lat"] = halos.size();
  // Application payload per rank: the halo plus the collective's operand.
  double bytes = 0;
  for (int it = 0; it < kIters; ++it) {
    static constexpr std::size_t kOperand[kCollKinds] = {
        0, kBcastBytes, kReduceDoubles * 8, kReduceDoubles * 8};
    bytes += static_cast<double>(kHaloBytes + kOperand[it % kCollKinds]);
  }
  r.sim["stream_mbs"] =
      per(bytes / 1e6, fmx::sim::to_seconds(st.t_end - t0));
  for (int k = 0; k < kCollKinds; ++k) {
    r.sim[std::string("coll.") + kCollNames[k] + "_us"] =
        median(st.out[0].coll_us[k]);
    r.samples[std::string("coll.") + kCollNames[k]] =
        st.out[0].coll_us[k].size();
  }

  const double ops = kIters;
  add_layer_counts(r, d, rt, ops, static_cast<double>(kRanks) * kIters);
  // Per rank-iteration: the halo message starts one handler; a NIC
  // collective should add none (it interrupts the host once, polled).
  r.sim["fm2.handler_starts_per_op"] =
      static_cast<double>(d.fm_handler_starts) / (kRanks * ops);

  if (o.traced && !o.chrome_trace_path.empty()) {
    Spans::Scope s(spans, "trace.export");
    r.check(fmx::trace::write_chrome_trace(cl->shard_fabric(0).tracer(),
                                           o.chrome_trace_path),
            "coll_bsp: could not write " + o.chrome_trace_path);
  }
  return r;
}

}  // namespace perfbench
