// MPI-FM: an MPI point-to-point + collectives subset layered over Fast
// Messages, in two generations:
//   * MpiFm1 (mpi_fm1.hpp) — over FM 1.x, with the interface-induced copies
//     the paper analyses in §3.2 (send staging; handler cannot reach the
//     posted buffer, so every message passes through MPI temp buffers).
//   * MpiFm2 (mpi_fm2.hpp) — over FM 2.x, using gather for the 24-byte MPI
//     header, layer interleaving to steer payloads directly into posted
//     buffers, and receiver flow control (§4.1).
//
// Both share this communicator interface, so benchmarks and examples run
// unchanged on either generation.
#pragma once

#include <cstdint>
#include <optional>

#include "common/buffer.hpp"
#include "mpi/match.hpp"
#include "sim/predicate.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace fmx::mpi {

/// 24-byte MPI envelope prepended to every message ("the minimum length of
/// the header added by the MPI code is 24 bytes", §5).
struct MpiHeader {
  std::int32_t tag = 0;
  std::int32_t src_rank = -1;
  std::uint32_t bytes = 0;
  std::uint16_t kind = 0;   // 0 = point-to-point, 1..n collective internals
  std::uint16_t flags = 0;
  std::uint64_t seq = 0;
};
static_assert(sizeof(MpiHeader) == 24);

class Comm {
 public:
  virtual ~Comm() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;
  /// Spend `t` of host CPU time (models an application compute phase).
  virtual sim::Task<void> host_compute(sim::Ps t) = 0;

  // --- point to point ----------------------------------------------------
  /// Blocking standard send (eager protocol: completes when the data has
  /// been handed to FM).
  sim::Task<void> send(ByteSpan data, int dst, int tag) {
    return do_send(data, dst, tag);
  }
  /// Nonblocking receive: posts the buffer and returns immediately.
  sim::Task<Request> irecv(MutByteSpan buf, int src, int tag) {
    return do_post_recv(buf, src, tag);
  }
  /// Eager isend: data is buffered/injected before return.
  sim::Task<Request> isend(ByteSpan data, int dst, int tag);

  sim::Task<void> recv(MutByteSpan buf, int src, int tag,
                       Status* status = nullptr);
  /// Nonblocking probe: one progress round, then report whether a matching
  /// message has arrived (envelope visible) without consuming it.
  sim::Task<bool> iprobe(int src, int tag, Status* status = nullptr);
  /// Blocking probe: progress until a matching envelope is present.
  sim::Task<void> probe(int src, int tag, Status* status = nullptr);
  sim::Task<void> wait(Request req, Status* status = nullptr);
  sim::Task<void> waitall(std::span<Request> reqs);
  /// Progress the stack once and report whether the request completed.
  sim::Task<bool> test(Request req);
  sim::Task<void> sendrecv(ByteSpan senddata, int dst, int sendtag,
                           MutByteSpan recvbuf, int src, int recvtag,
                           Status* status = nullptr);

  // --- collectives --------------------------------------------------------
  // The base implementations run over point-to-point (dissemination
  // barrier, binomial bcast/reduce). Virtual so a backend can substitute
  // offloaded algorithms — MpiFm2 with nic_collectives forwards these four
  // through the NIC control program (myrinet/coll.hpp) and keeps the host-
  // level versions as the ablation.
  virtual sim::Task<void> barrier();
  virtual sim::Task<void> bcast(MutByteSpan buf, int root);
  /// Element-wise sum reduction of doubles to `root` (in place at root).
  virtual sim::Task<void> reduce_sum(std::span<double> data, int root);
  virtual sim::Task<void> allreduce_sum(std::span<double> data);
  /// Gather equal-sized blocks to root (recvbuf size = size() * block).
  sim::Task<void> gather(ByteSpan block, MutByteSpan recvbuf, int root);
  /// Scatter equal-sized blocks from root (sendbuf size = size() * block).
  sim::Task<void> scatter(ByteSpan sendbuf, MutByteSpan block, int root);
  /// Every rank ends with everyone's block, rank-ordered.
  sim::Task<void> allgather(ByteSpan block, MutByteSpan recvbuf);
  /// Personalized exchange: block i of sendbuf goes to rank i.
  sim::Task<void> alltoall(ByteSpan sendbuf, MutByteSpan recvbuf);

  struct Stats {
    std::uint64_t sends = 0;
    std::uint64_t recvs = 0;
    std::uint64_t posted_hits = 0;   // arrivals that found a posted buffer
    std::uint64_t unexpected = 0;    // arrivals queued as unexpected
  };
  const Stats& stats() const noexcept { return stats_; }

 protected:
  virtual sim::Task<void> do_send(ByteSpan data, int dst, int tag) = 0;
  virtual sim::Task<Request> do_post_recv(MutByteSpan buf, int src,
                                          int tag) = 0;
  /// Drive FM extraction until the predicate holds. `done` is non-owning:
  /// callers pass a lambda inside the awaited full-expression
  /// (`co_await progress_until([&] { ... })`), which outlives the wait.
  virtual sim::Task<void> progress_until(sim::Predicate done) = 0;
  /// One nonblocking extraction round (for test()).
  virtual sim::Task<void> progress_once() = 0;
  /// Envelope of the first matching unexpected arrival, if any (probe).
  virtual std::optional<Status> peek_unexpected(int src, int tag) = 0;

  static constexpr int kCollectiveTagBase = 1 << 24;

  Stats stats_;
};

}  // namespace fmx::mpi
