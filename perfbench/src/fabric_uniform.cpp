// fabric_uniform: open-loop overload of a 512-host 1:1 fat tree.
//
// Every host originates 64 flows with Poisson arrivals at 2e7 flows/s and
// bounded-Pareto(1.2, 32, 2048) sizes to uniform-random peers, so the whole
// schedule lands within a few microseconds and nearly every flow is in
// flight at once. Eight shards run on the worker threads main.cpp picks.
// Warmup waves of the same schedule size every pool first; each measured
// wave must complete every scheduled flow.
//
// The modeled fabric tails of a sharded run depend on the shard partition
// today (see myrinet/parallel_cluster.hpp). The end-to-end simulated
// metrics therefore come from one extra wave of the same schedule on a
// one-shard cluster: the answer every shard count is meant to reproduce.
// The eight-shard waves give the per-layer flow quantiles, which show the
// partition effect for as long as it exists.
#include <memory>

#include "myrinet/parallel_cluster.hpp"
#include "myrinet/params.hpp"
#include "trace/export.hpp"
#include "workload.hpp"
#include "workload/traffic_engine.hpp"

namespace perfbench {

namespace {

constexpr int kHosts = 512;
constexpr int kShards = 8;
constexpr int kFlowsPerHost = 64;
constexpr double kFlowRate = 2e7;
constexpr int kWarmupWaves = 2;
constexpr int kMeasuredWaves = 4;

const fmx::workload::LayerQuantiles* layer(
    const fmx::workload::WaveResult& w, const char* name) {
  for (const auto& q : w.layers) {
    if (std::string(q.layer) == name) return &q;
  }
  return nullptr;
}

std::unique_ptr<fmx::net::ParallelCluster> make_cluster(int shards) {
  auto params = fmx::net::fat_tree_cluster(kHosts, 0, 1);
  // Keep every in-flight buffer and ring slot of the overload retained
  // across waves, as bench/fabric_scale does, so measured waves reuse
  // what the warmup waves sized.
  params.fabric.pool_retain_bytes_per_class = std::size_t{256} << 20;
  params.nic.host_ring_slots = 256;
  auto cl = std::make_unique<fmx::net::ParallelCluster>(params, shards);
  for (int sh = 0; sh < cl->n_shards(); ++sh) {
    cl->shard_engine(sh).reserve_events(std::size_t{1} << 16);
  }
  return cl;
}

}  // namespace

PassResult run_fabric_uniform(const PassOptions& o, Spans& spans) {
  PassResult r;
  r.shards = kShards;
  r.threads = o.threads;
  Spans::Scope pass(spans, "pass");
  const auto setup_t0 = Clock::now();
  auto setup = std::make_unique<Spans::Scope>(spans, "setup");

  std::unique_ptr<fmx::net::ParallelCluster> cl;
  {
    Spans::Scope s(spans, "setup.cluster");
    cl = make_cluster(kShards);
  }
  std::unique_ptr<fmx::workload::TrafficEngine> te;
  {
    Spans::Scope s(spans, "setup.endpoints");
    te = std::make_unique<fmx::workload::TrafficEngine>(*cl);
  }
  fmx::workload::Schedule sched;
  {
    Spans::Scope s(spans, "setup.schedule");
    fmx::workload::TrafficConfig cfg;
    cfg.pattern = fmx::workload::TrafficPattern::kUniform;
    cfg.sizes = fmx::workload::SizeDistribution::bounded_pareto(1.2, 32, 2048);
    cfg.flow_rate_per_host = kFlowRate;
    cfg.flows_per_host = kFlowsPerHost;
    cfg.seed = o.seed;
    sched = fmx::workload::make_schedule(cfg, kHosts);
  }
  if (o.traced) cl->enable_tracing(1 << 15);
  setup.reset();
  r.setup_s = seconds_since(setup_t0);

  auto check_wave = [&r, &sched](const fmx::workload::WaveResult& w,
                                 const char* what) {
    r.check(w.completed == sched.total_flows,
            std::string("fabric_uniform: ") + what + " wave left flows " +
                "incomplete");
    r.check(w.pending_roots == 0,
            std::string("fabric_uniform: ") + what +
                " wave has pending_roots != 0");
  };
  {
    Spans::Scope s(spans, "warmup");
    for (int w = 0; w < kWarmupWaves; ++w) {
      check_wave(te->run_wave(sched, o.threads), "warmup");
    }
  }

  std::vector<fmx::fm2::Endpoint*> eps;
  for (int i = 0; i < kHosts; ++i) eps.push_back(&te->endpoint(i));
  const double flows = static_cast<double>(sched.total_flows);
  RunTotals all;
  Digest dg;
  fmx::workload::WaveResult first;
  const Counters c0 = snapshot(*cl, eps);
  {
    Spans::Scope m(spans, "measure");
    for (int w = 0; w < kMeasuredWaves; ++w) {
      fmx::net::ParallelCluster::RunResult raw;
      const auto t0 = Clock::now();
      RunTotals rt;
      {
        Spans::Scope s(spans, "run");
        te->spawn_wave(sched);
        rt = timed_run(*cl, o.threads, &raw);
      }
      rt.wall_s = seconds_since(t0);
      r.ops_per_s.push_back(flows / rt.wall_s);
      all.add(rt);
      fmx::workload::WaveResult wave;
      {
        Spans::Scope s(spans, "collect");
        wave = te->collect_wave(sched, raw);
      }
      check_wave(wave, "measured");
      dg.mix(wave.digest);
      dg.mix(wave.events);
      if (w == 0) first = std::move(wave);
    }
  }
  const Counters d = snapshot(*cl, eps) - c0;

  for (const char* name : {"src_queue", "transit", "deliver", "handler"}) {
    if (const auto* q = layer(first, name)) {
      r.sim[std::string("flow.") + name + "_p99_us"] = q->p99 / 1e6;
    }
  }
  if (const auto* q = layer(first, "e2e")) {
    r.sim["flow.e2e_p99_us"] = q->p99 / 1e6;
    r.sim["flow.e2e_p50_us"] = q->p50 / 1e6;
  }
  r.sim["flow.makespan_us"] = fmx::sim::to_us(first.makespan);

  const double ops = flows * kMeasuredWaves;
  add_layer_counts(r, d, all, ops, ops);
  // Frames are counted per thread; only a one-thread wave sees them all.
  r.meters.erase("sim.frames_per_event");
  if (o.traced) {
    Spans::Scope s(spans, "serial_wave");
    te->spawn_wave(sched);
    fmx::net::ParallelCluster::RunResult raw;
    const RunTotals one = timed_run(*cl, 1, &raw);
    check_wave(te->collect_wave(sched, raw), "one-thread");
    r.meters["sim.frames_per_event"] =
        per(static_cast<double>(one.frames), static_cast<double>(one.events));
  }

  if (o.traced && !o.chrome_trace_path.empty()) {
    Spans::Scope s(spans, "trace.export");
    // Shard 0's tracer holds hosts 0..63; one shard keeps the file small.
    r.check(fmx::trace::write_chrome_trace(cl->shard_fabric(0).tracer(),
                                           o.chrome_trace_path),
            "fabric_uniform: could not write " + o.chrome_trace_path);
  }
  te.reset();
  cl.reset();

  Spans::Scope s(spans, "reference");
  const auto ref_cl = make_cluster(1);
  fmx::workload::TrafficEngine ref_te(*ref_cl);
  const fmx::workload::WaveResult ref = ref_te.run_wave(sched, 1);
  check_wave(ref, "one-shard reference");
  dg.mix(ref.digest);
  r.digest = dg.h;
  const auto* e2e = layer(ref, "e2e");
  r.check(e2e != nullptr && e2e->count == sched.total_flows,
          "fabric_uniform: e2e histogram does not cover every flow");
  if (e2e != nullptr) {
    r.sim["msg_lat_p50_us"] = r.sim["iter_p50_us"] = e2e->p50 / 1e6;
    r.sim["msg_lat_p99_us"] = r.sim["iter_p99_us"] = e2e->p99 / 1e6;
    r.samples["msg_lat"] = r.samples["iter"] = e2e->count;
  }
  double bytes = 0;
  for (const auto& host : sched.per_host) {
    for (const auto& f : host) bytes += f.size;
  }
  r.sim["stream_mbs"] =
      per(bytes / kHosts / 1e6, fmx::sim::to_seconds(ref.makespan));
  return r;
}

}  // namespace perfbench
