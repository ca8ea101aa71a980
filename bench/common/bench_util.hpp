// Shared measurement harness for the figure-reproduction benchmarks.
// Bandwidth tests stream a window of messages end to end and divide payload
// bytes by elapsed simulated time; latency tests halve a ping-pong round
// trip — the same methodology as the paper's microbenchmarks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fm1/fm1.hpp"
#include "fm2/fm2.hpp"
#include "myrinet/params.hpp"
#include "trace/export.hpp"

namespace fmx::bench {

struct Measurement {
  double bandwidth_mbs = 0;   // payload MB/s (1 MB = 1e6 B)
  double latency_us = 0;      // one-way, when measured
  std::uint64_t copies_recv = 0;
  std::uint64_t copies_send = 0;
  // Buffer-pool misses (fresh data-path heap allocations) during the
  // measured region; zero once the pool is warm.
  std::uint64_t allocs_send = 0;
  std::uint64_t allocs_recv = 0;
};

/// Raw FM 1.x streaming bandwidth for messages of `msg_size` bytes.
Measurement fm1_bandwidth(const net::ClusterParams& cp, std::size_t msg_size,
                          int n_msgs = 200, fm1::Config cfg = {});

/// FM 1.x one-way latency (ping-pong / 2) for `msg_size`-byte messages.
double fm1_latency_us(const net::ClusterParams& cp, std::size_t msg_size,
                      int rounds = 50, fm1::Config cfg = {});

/// Raw FM 2.x streaming bandwidth.
Measurement fm2_bandwidth(const net::ClusterParams& cp, std::size_t msg_size,
                          int n_msgs = 200, fm2::Config cfg = {});

/// FM 2.x one-way latency.
double fm2_latency_us(const net::ClusterParams& cp, std::size_t msg_size,
                      int rounds = 50, fm2::Config cfg = {});

/// MPI bandwidth: a window of pre-posted irecvs (standard methodology),
/// sender streams `n_msgs` messages. Backend selected by template.
enum class MpiGen { kFm1, kFm2 };
Measurement mpi_bandwidth(MpiGen gen, const net::ClusterParams& cp,
                          std::size_t msg_size, int n_msgs = 100);

/// MPI one-way latency (ping-pong / 2).
double mpi_latency_us(MpiGen gen, const net::ClusterParams& cp,
                      std::size_t msg_size, int rounds = 40);

/// Per-message latency breakdown (host / wire / queue / handler columns,
/// from the cross-layer tracer) for a traced streaming run.
trace::BreakdownSummary fm1_breakdown(const net::ClusterParams& cp,
                                      std::size_t msg_size, int n_msgs = 100,
                                      fm1::Config cfg = {});
trace::BreakdownSummary fm2_breakdown(const net::ClusterParams& cp,
                                      std::size_t msg_size, int n_msgs = 100,
                                      fm2::Config cfg = {});

/// Print breakdown summaries as a table, one row per (label, summary).
void print_breakdown_rows(
    const std::string& title,
    const std::vector<std::pair<std::string, trace::BreakdownSummary>>& rows);

/// N1/2: smallest message size (bytes, searched over `grid`) whose bandwidth
/// reaches half of `peak_mbs`. Returns the interpolated size.
double half_power_point(const std::function<double(std::size_t)>& bw_of,
                        double peak_mbs, std::size_t lo = 4,
                        std::size_t hi = 8192);

/// The message-size grid the paper's figures use.
std::vector<std::size_t> paper_sizes(std::size_t lo = 16,
                                     std::size_t hi = 2048);

/// Print a two-column series in a uniform format.
void print_series(const std::string& title,
                  const std::vector<std::size_t>& sizes,
                  const std::vector<double>& values,
                  const std::string& unit);

/// Median of `v` (by copy; v may be unsorted). 0 for an empty vector.
double median(std::vector<double> v);

}  // namespace fmx::bench
