// The benchmark's metric table: every metric it prints, with its unit, the
// direction that is better and, for per-layer metrics, the end-to-end
// metric and workload it is expected to move. BENCHMARK.json lists the
// same names and units; `perfbench --list-metrics` prints this table
// and `run.py --self-test` checks the two agree.
#pragma once

#include <string_view>

namespace perfbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  bool higher_is_better;
  /// End-to-end metric(s) and workload(s) this per-layer metric moves.
  std::string_view moves;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "ops/s", true, ""},
    {"setup_s", "s", false, ""},
    {"peak_rss_mb", "MB", false, ""},
    {"msg_lat_p50_us", "us", false, ""},
    {"msg_lat_p99_us", "us", false, ""},
    {"stream_mbs", "MB/s", true, ""},
    {"iter_p50_us", "us", false, ""},
    {"iter_p99_us", "us", false, ""},
};

inline constexpr MetricDef kPerLayer[] = {
    // sim: event engine
    {"sim.events_per_op", "count", false, "ops_per_s on all"},
    {"sim.events_per_s", "1/s", true, "ops_per_s on all"},
    {"sim.allocs_per_event", "count", false, "ops_per_s on all"},
    {"sim.frames_per_event", "count", false, "ops_per_s on all"},
    {"sim.retained_mb_per_pass", "MB", false,
     "peak_rss_mb on all, in a process that builds many clusters"},
    // sim: parallel engine
    {"par.events_per_window", "count", true, "ops_per_s on fabric_uniform"},
    {"par.parks_per_kwindow", "count", false, "ops_per_s on fabric_uniform"},
    // myrinet: fabric
    {"fabric.packets_per_op", "count", false, "ops_per_s on all"},
    {"fabric.bytes_per_op", "B", false, "ops_per_s on all"},
    {"flow.src_queue_p99_us", "us", false, "msg_lat_p99_us on fabric_uniform"},
    {"flow.transit_p99_us", "us", false, "msg_lat_p99_us on fabric_uniform"},
    {"flow.deliver_p99_us", "us", false, "msg_lat_p99_us on fabric_uniform"},
    {"flow.handler_p99_us", "us", false, "msg_lat_p99_us on fabric_uniform"},
    {"flow.e2e_p99_us", "us", false, "msg_lat_p99_us on fabric_uniform"},
    {"flow.e2e_p50_us", "us", false, "msg_lat_p50_us on fabric_uniform"},
    {"flow.makespan_us", "us", false, "stream_mbs on fabric_uniform"},
    // myrinet: NIC and its collective program
    {"nic.coll_forwards_per_op", "count", false, "iter_p50_us on coll_bsp"},
    {"nic.coll_combines_per_op", "count", false, "iter_p50_us on coll_bsp"},
    {"coll.barrier_us", "us", false, "iter_p50_us, iter_p99_us on coll_bsp"},
    {"coll.bcast_us", "us", false, "iter_p50_us, iter_p99_us on coll_bsp"},
    {"coll.reduce_us", "us", false, "iter_p50_us, iter_p99_us on coll_bsp"},
    {"coll.allreduce_us", "us", false, "iter_p50_us, iter_p99_us on coll_bsp"},
    {"nic.rdma_chunks_per_msg", "count", false, "stream_mbs on mpi_p2p"},
    // myrinet: pin-down cache
    {"regcache.hit_ratio", "ratio", true,
     "msg_lat_p99_us, stream_mbs on mpi_p2p"},
    {"regcache.evictions", "count", false,
     "msg_lat_p99_us, stream_mbs on mpi_p2p"},
    // myrinet: host and I/O bus cost ledger (simulated time per message)
    {"host.call_us_per_msg", "us", false, "msg_lat_p50_us on mpi_p2p"},
    {"host.copy_us_per_msg", "us", false, "stream_mbs on mpi_p2p"},
    {"host.header_us_per_msg", "us", false, "msg_lat_p50_us on mpi_p2p"},
    {"host.pio_us_per_msg", "us", false, "msg_lat_p50_us on mpi_p2p"},
    {"host.dma_us_per_msg", "us", false, "stream_mbs on mpi_p2p"},
    {"host.dispatch_us_per_msg", "us", false, "msg_lat_p50_us on mpi_p2p"},
    {"host.match_us_per_msg", "us", false, "msg_lat_p50_us on mpi_p2p"},
    {"host.buffer_mgmt_us_per_msg", "us", false, "stream_mbs on mpi_p2p"},
    {"host.flow_ctl_us_per_msg", "us", false, "stream_mbs on mpi_p2p"},
    // fm2
    {"fm2.packets_per_msg", "count", false,
     "stream_mbs on mpi_p2p; ops_per_s on fabric_uniform"},
    {"fm2.handler_resumes_per_msg", "count", false,
     "stream_mbs on mpi_p2p; ops_per_s on fabric_uniform"},
    {"fm2.credit_stalls_per_msg", "count", false,
     "stream_mbs on mpi_p2p; ops_per_s on fabric_uniform"},
    {"fm2.credit_packets_per_msg", "count", false,
     "stream_mbs on mpi_p2p; ops_per_s on fabric_uniform"},
    {"fm2.raw_stream_mbs", "MB/s", true,
     "reference for mpi.eff_pct on mpi_p2p"},
    {"fm2.handler_starts_per_op", "count", false, "iter_p50_us on coll_bsp"},
    // mpi
    {"mpi.eff_pct", "%", true, "stream_mbs on mpi_p2p"},
    {"mpi.eager_lat_p50_us", "us", false, "msg_lat_p50_us on mpi_p2p"},
    {"mpi.rdzv_lat_p50_us", "us", false, "msg_lat_p99_us on mpi_p2p"},
    {"mpi.unexpected_share", "ratio", false,
     "msg_lat_p50_us, msg_lat_p99_us on mpi_p2p"},
    {"mpi.sendrecv_p50_us", "us", false, "iter_p50_us on coll_bsp"},
    // common: copies and packet buffers
    {"copy.endpoint_copies_per_msg", "count", false,
     "stream_mbs, ops_per_s on mpi_p2p"},
    {"copy.hop_copies", "count", false,
     "ops_per_s on fabric_uniform (cross-shard copies); 0 on one shard"},
    {"copy.rdma_bytes_share", "ratio", true,
     "stream_mbs, ops_per_s on mpi_p2p"},
    {"pool.misses", "count", false, "stream_mbs, ops_per_s on mpi_p2p"},
    // workload and set-up (wall-clock span self time per call)
    {"setup.cluster_s", "s", false, "setup_s on all"},
    {"setup.endpoints_s", "s", false, "setup_s on all"},
    {"setup.comms_s", "s", false, "setup_s on mpi_p2p, coll_bsp"},
    {"setup.schedule_s", "s", false, "setup_s on all"},
    {"setup.join_s", "s", false, "setup_s on coll_bsp"},
    {"workload.collect_s", "s", false,
     "none: wave analysis between timed waves on fabric_uniform"},
    // trace
    {"trace.overhead_pct", "%", false, "none: cost of the traced run"},
};

}  // namespace perfbench
