// Conservative parallel discrete-event execution (Chandy–Misra-style
// lookahead, PAPERS.md parallel-simulation entries).
//
// The cluster is partitioned into shards, each owning a private Engine.
// Earlier revisions advanced all shards in lockstep windows of one global
// lookahead (two sense-reversing barriers per 850 ns window — ~10 events of
// useful work per crossing). This revision replaces the barriers with a
// *published-horizon* scheme:
//
//   - A per-pair lookahead matrix L[src][dst] (metric-closed at
//     construction) bounds how fast anything can propagate between each
//     pair of shards; shards that are topologically far apart synchronize
//     loosely even when busy.
//   - Each shard continuously publishes, per destination, a conservative
//     lower bound on the head-arrival time of any cross-shard message it
//     may still emit. The default bound is next_event_time() + L[s][d]; an
//     emission-bound hook lets the transport sharpen it with dynamic state
//     (for the Myrinet fabric: the source uplink's next-free time, which
//     during streaming sits many microseconds ahead — see
//     myrinet/parallel_cluster.cpp).
//   - A worker advances a shard by (1) reading every peer's published
//     bound for it (padded atomics, acquire) and taking the min, (2)
//     draining its inbound rings, (3) running events strictly below the
//     bound in one batched quantum, (4) republishing its own row
//     (release). No barrier on the hot path; idle gaps are crossed in the
//     same step because bounds are absolute times, not widths.
//
// Soundness (why no in-flight message can be missed): three mechanisms
// cover the three ways a message can be in flight. (a) Direct: a worker
// loads pub[A][s] *before* draining, and a producer commits a ring slot
// *before* republishing, so any message invisible to the drain was
// emitted by an event A executed after its publish; engines execute
// events in nondecreasing time order, so its head is >= the published
// bound. (b) Relays: a message X -> Y sitting undrained in Y's ring can
// wake an idle Y into emitting toward s below Y's (stale) promise. The
// emitter therefore tracks an *in-flight bucket* per destination
// (note_emission) and folds `bucket min head + L[Y][d]` into every entry
// of its own published row until Y's covering publish retires the bucket
// (per-pair covered counters, note_drained); L is metric-closed, so the
// relay term through Y is never below the true relayed arrival. (c)
// Self-echo: nothing publishes a promise *to s about s*, so s caps its
// own bound by its open buckets' echo terms (head + L[dst][s]) and
// lowers a live cap mid-quantum when it emits — a message s sends can
// wake a peer whose reply must not land inside s's already-running
// quantum. The full induction is written out in EXPERIMENTS.md
// ("Parallel simulation").
//
// Progress: the shard owning the globally minimal event m always has
// bound >= m + min L > m, so a full pass over all shards either executes
// at least one event or proves global quiescence. Stalled workers spin,
// then yield, then park on a condvar; the last parker performs an
// exclusive termination sweep (all engines idle, and every noted emission
// drained).
//
// Determinism: cross-shard events order by explicit keys in a sequence
// band above all local events (Engine::kCrossSeqBand), so per-shard pop
// order is a pure function of simulated state — never of quantum
// boundaries or drain timing — and every simulated result is bit-identical
// at any thread count, including 1. Only the *meters* (windows,
// barrier_crossings) depend on scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace fmx::sim {

class ParallelEngine {
 public:
  /// Uniform lookahead: every shard pair is `lookahead` (>= 1 ps) apart.
  ParallelEngine(int n_shards, Ps lookahead);
  /// Per-pair lookahead matrix, row-major `n_shards * n_shards`;
  /// entry [src * n_shards + dst] bounds the propagation src -> dst
  /// (diagonal ignored). The matrix is metric-closed internally
  /// (L[a][c] <= L[a][b] + L[b][c] afterwards) — a requirement of the
  /// soundness argument above, and never a loosening: a relay chain is a
  /// real propagation path, so the direct bound may not exceed it.
  ParallelEngine(int n_shards, std::vector<Ps> lookahead);
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;
  ~ParallelEngine();

  int n_shards() const noexcept { return static_cast<int>(shards_.size()); }
  /// Post-closure pairwise lookahead (src != dst).
  Ps lookahead(int src, int dst) const {
    return lookahead_[static_cast<std::size_t>(src) * shards_.size() + dst];
  }
  /// Minimum off-diagonal lookahead (the unbatched quantum width).
  Ps min_lookahead() const noexcept { return min_lookahead_; }
  Engine& shard(int i) { return *shards_[i]; }
  const Engine& shard(int i) const { return *shards_[i]; }

  /// Install the per-shard drain hook, invoked on the shard's owning worker
  /// before every quantum. It must convert every message published to this
  /// shard into engine events via Engine::schedule_cross.
  void set_drain(int shard, std::function<void()> fn);

  /// Install a sharpened emission bound for `shard`: called with the
  /// shard's next-event time e, it must fill out[d] (d in [0, n_shards))
  /// with an absolute lower bound on the head-arrival time of any
  /// cross-shard message the shard can still emit toward d, assuming no
  /// local event runs before e. The hook must be monotone in e, must not
  /// return less than e + lookahead(shard, d), and must satisfy the
  /// triangle property out[d] <= out[x] + lookahead(x, d) (automatic when
  /// it is `min over sources of (per-source base + closed per-pair
  /// latency)`). Runs on the shard's owning worker only.
  void set_emission_bound(int shard, std::function<void(Ps, Ps*)> fn);

  /// Declare a lower bound on how long `shard` takes to *react* to an
  /// inbound cross-shard message with a cross-shard emission of its own
  /// (for the Myrinet cluster: receive-side per-packet processing, plus a
  /// fresh injection's per-packet tx time when the link needs no
  /// same-timestamp ack release). Folded into relay and self-echo terms: a
  /// message in flight toward B caps horizons at head + gap(B) + L[B][d]
  /// instead of head + L[B][d]. Default 0 (a relay may react instantly).
  /// Must be called before run(); a gap that overstates the true minimum
  /// reaction time breaks the soundness induction exactly like an inflated
  /// lookahead would.
  void set_reaction_gap(int shard, Ps gap) { reaction_gap_[shard] = gap; }
  Ps reaction_gap(int shard) const { return reaction_gap_[shard]; }

  /// Record a cross-shard emission src -> dst whose head-arrival time is
  /// `head`. Must be called on src's owning worker, inside the event that
  /// pushes the message (after the ring commit), for every message pushed.
  /// The emission opens an in-flight bucket that caps the emitter's own
  /// horizon (self-echo, including the quantum in progress) and is folded
  /// into its published row (relay coverage) until the destination's
  /// covering publish retires it — see note_drained. The termination sweep
  /// also counts it: the run cannot end while a noted message is undrained.
  void note_emission(int src, int dst, Ps head);

  /// Record, from inside dst's drain hook, that `n` more messages from
  /// `src` were converted into engine events. The cumulative count is
  /// republished to the emitter — retiring its in-flight bucket — only
  /// after dst's next horizon publish, which by then covers everything
  /// those messages can trigger.
  void note_drained(int dst, int src, std::uint64_t n);

  /// Window batching (default on) runs each quantum all the way to the
  /// conservative bound. Off chops quanta to min_lookahead() widths like
  /// the historical barrier scheme — same simulated results by the
  /// determinism invariant, just more synchronization; kept as a
  /// cross-check knob for tests.
  void set_window_batching(bool on) noexcept { batching_ = on; }
  bool window_batching() const noexcept { return batching_; }

  struct RunResult {
    std::uint64_t events = 0;  ///< events processed across all shards
    /// Advance quanta that executed at least one event, summed over
    /// shards. Divide by n_shards for a figure comparable to the old
    /// global window count ("every shard stepped once"). Depends on
    /// thread scheduling — a meter, never part of a determinism digest.
    std::uint64_t windows = 0;
    /// Slow-path entries: times a worker exhausted its spin/yield budget
    /// and parked on the condvar (the only remaining mutex crossings).
    std::uint64_t barrier_crossings = 0;
    int pending_roots = 0;  ///< unfinished roots (deadlock if nonzero)
  };

  /// Run all shards to global quiescence on `n_threads` workers (clamped to
  /// [1, n_shards]). Shard s is owned by worker s % n_threads for the whole
  /// run. May be called again after it returns (e.g. a second traffic wave
  /// spawned on the shard engines). Worker threads persist across calls —
  /// respawned only when the thread count changes — so repeated runs do
  /// not touch the allocator.
  RunResult run(int n_threads);

 private:
  void worker_body(int w);
  bool advance(int s, int w, std::uint64_t& events, std::uint64_t& quanta);
  void publish(int s, int w, bool* changed);
  bool quiescent() const;
  void ensure_pool(int n_extra);
  void stop_pool();

  std::vector<Ps> lookahead_;  // metric-closed, row-major k*k
  std::vector<Ps> reaction_gap_;  // per-shard, see set_reaction_gap
  Ps min_lookahead_ = 0;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::vector<std::function<void()>> drains_;
  std::vector<std::function<void(Ps, Ps*)>> emission_bounds_;
  bool batching_ = true;

  // Published horizons: row s (written only by s's owner) holds pub[s][d]
  // for every destination d. Rows are padded to cache-line multiples so
  // owners never false-share.
  std::size_t pub_stride_ = 0;
  std::unique_ptr<std::atomic<Ps>[]> pub_;
  std::atomic<Ps>& pub(int src, int dst) noexcept {
    return pub_[static_cast<std::size_t>(src) * pub_stride_ + dst];
  }
  std::vector<std::vector<Ps>> scratch_;  // per-worker bound buffers

  // In-flight emission buckets, one per directed pair, written only by the
  // source shard's owner: messages pushed src -> dst that dst has not yet
  // covered with a post-drain publish. min_head caps the emitter's own
  // bound (self-echo) and feeds relay terms into its published row.
  struct PairOut {
    std::uint64_t pushed = 0;   // emissions ever, src -> dst
    std::uint64_t max_idx = 0;  // newest emission in the open bucket
    Ps min_head = 0;            // min head in the open bucket (when open)
    bool open = false;
  };
  std::vector<PairOut> out_;           // [src * k + dst]
  std::vector<std::uint64_t> staged_;  // [dst * k + src], dst-owned counts
  // covered_[dst * pub_stride_ + src]: total messages src -> dst whose
  // effects dst's published horizon accounts for. Stored by dst's owner
  // (release) strictly after its row stores; srcs acquire it to retire
  // buckets, so a retired bucket implies the covering row is visible.
  std::unique_ptr<std::atomic<std::uint64_t>[]> covered_;
  std::atomic<std::uint64_t>& covered(int dst, int src) noexcept {
    return covered_[static_cast<std::size_t>(dst) * pub_stride_ + src];
  }
  // Per-shard live quantum cap, written only by the owning worker;
  // Engine::run_below rereads it every event so note_emission can shorten
  // the quantum in progress.
  struct alignas(64) LiveCap {
    Ps v = 0;
  };
  std::vector<LiveCap> live_cap_;

  // Per-run shared state (reset by run(), used by worker_body).
  std::atomic<std::uint64_t> tot_events_{0};
  std::atomic<std::uint64_t> tot_quanta_{0};
  std::atomic<std::uint64_t> tot_parks_{0};
  std::atomic<bool> done_flag_{false};
  std::atomic<int> idle_approx_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  int idle_count_ = 0;  // guarded by idle_mu_
  int run_threads_ = 1;

  // Persistent worker pool: threads park between run() calls.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_work_;
  std::condition_variable pool_cv_done_;
  std::vector<std::thread> pool_;
  std::uint64_t pool_gen_ = 0;  // guarded by pool_mu_
  int pool_running_ = 0;        // guarded by pool_mu_
  bool pool_stop_ = false;      // guarded by pool_mu_
};

}  // namespace fmx::sim
