// Measurement from outside the simulator: wall-clock spans the benchmark
// records around its own calls into each layer, and snapshots of the
// layers' public statistics (endpoint, NIC, pin-down cache, host cost
// ledger, fabric, buffer pool, copy counters, coroutine-frame pool) whose
// differences attribute a measured phase to layers.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/copy_stats.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/parallel_cluster.hpp"
#include "sim/ledger.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set size of this process so far, in MB (getrusage).
double peak_rss_mb();

/// CPU model string from /proc/cpuinfo ("unknown" if unavailable).
std::string cpu_model();

/// Wall-clock spans on the calling thread. Spans nest strictly (RAII
/// scopes), so a span's self time is its duration minus the durations of
/// its direct children.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans& s, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& s_;
    int idx_;
  };

  Spans() : origin_(Clock::now()) {}

  /// Mean self seconds per call, per span name.
  std::map<std::string, double> self_seconds() const;
  /// Drop every recorded span (call only with no scope open).
  void clear() { spans_.clear(); }
  /// Write the spans as Chrome trace "complete" events (microseconds).
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double t0, t1;
    int parent;
  };
  double now() const { return seconds_since(origin_); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Summed public statistics of every layer of a cluster. Differences of
/// two snapshots attribute a phase; all fields are exact counts (or
/// simulated picoseconds for the ledger).
struct Counters {
  // fabric (myrinet)
  std::uint64_t fabric_packets = 0;
  std::uint64_t fabric_bytes = 0;
  // NIC control program
  std::uint64_t coll_forwards = 0;
  std::uint64_t coll_combines = 0;
  std::uint64_t rdma_rx_chunks = 0;
  // pin-down cache
  std::uint64_t reg_hits = 0;
  std::uint64_t reg_misses = 0;
  std::uint64_t reg_evictions = 0;
  // host cost ledger, simulated ps per sim::Cost category
  std::array<std::uint64_t, static_cast<std::size_t>(fmx::sim::Cost::kCount)>
      ledger_ps{};
  // fm2 endpoints
  std::uint64_t fm_packets_sent = 0;
  std::uint64_t fm_handler_starts = 0;
  std::uint64_t fm_handler_resumes = 0;
  std::uint64_t fm_credit_stalls = 0;
  std::uint64_t fm_credit_packets = 0;
  // common: physical copies and packet-buffer pool
  fmx::CopyStats::Snapshot copies{};
  std::uint64_t pool_misses = 0;

  Counters operator-(const Counters& o) const;
};

Counters snapshot(fmx::net::ParallelCluster& cl,
                  const std::vector<fmx::fm2::Endpoint*>& eps);

/// Engine-side totals of the runs of one phase.
struct RunTotals {
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t parks = 0;
  int pending_roots = 0;
  double wall_s = 0;
  std::uint64_t allocs = 0;  // operator new calls during the runs
  std::uint64_t frames = 0;  // coroutine frames allocated on this thread

  void add(const RunTotals& o);
};

/// cl.run(threads), timed and counted; `raw` receives the run's own result.
RunTotals timed_run(fmx::net::ParallelCluster& cl, int threads,
                    fmx::net::ParallelCluster::RunResult* raw = nullptr);

/// Simulated picoseconds to microseconds.
inline double us(std::uint64_t ps) { return static_cast<double>(ps) / 1e6; }

}  // namespace perfbench
