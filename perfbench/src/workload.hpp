// The three benchmark workloads. Each call runs one pass: it sets up a
// fresh cluster from the seed (timed as set-up), runs the measured phase
// through the public API only (net::ParallelCluster, fm2::Endpoint(Node&,
// Fabric&), mpi::MpiFm2(Endpoint&), workload::TrafficEngine), checks every
// output, and reports what it measured. main.cpp repeats passes for the run
// time and turns them into metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "probes.hpp"

namespace perfbench {

struct PassOptions {
  std::uint64_t seed = 1;
  /// Enable the simulator's tracer for this pass.
  bool traced = false;
  /// If non-empty (traced passes only), write the simulator's trace here as
  /// a Chrome trace.
  std::string chrome_trace_path;
  /// Worker threads for workloads that run sharded.
  int threads = 1;
};

struct PassResult {
  int shards = 1;
  int threads = 1;
  /// Wall seconds from the first constructor to the first measured op.
  double setup_s = 0;
  /// Measured ops per wall second, one sample per measured repetition.
  std::vector<double> ops_per_s;
  /// Simulated results and exact layer counts. A function of (params,
  /// seed) only: every pass of a run must reproduce them bit for bit.
  std::map<std::string, double> sim;
  /// Per-layer values that depend on the host or on thread timing.
  std::map<std::string, double> meters;
  /// Sample count behind each timing distribution reported in `sim`.
  std::map<std::string, std::size_t> samples;
  /// Digest over the simulated outputs (completion times, event counts).
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Count one checked output. Checks run inside timed phases, so `what`
  /// is a view: build a message only when `ok` is false.
  void check(bool ok, std::string_view what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 8) errors.emplace_back(what);
    }
  }
};

PassResult run_mpi_p2p(const PassOptions& o, Spans& spans);
PassResult run_fabric_uniform(const PassOptions& o, Spans& spans);
PassResult run_coll_bsp(const PassOptions& o, Spans& spans);

/// FNV-1a accumulator for digests.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

/// a / b, or 0 when b is 0 (a phase that did not run).
inline double per(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Layer metrics every workload reports from the counter difference over
/// its measured phase: `ops` measured ops, `msgs` messages handed to the
/// layer under test (MPI messages, flows, or halo messages).
void add_layer_counts(PassResult& r, const Counters& d, const RunTotals& rt,
                      double ops, double msgs);

}  // namespace perfbench
