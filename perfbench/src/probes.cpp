#include "probes.hpp"

#include <sys/resource.h>

#include <fstream>

#include "alloc_hook.hpp"
#include "sim/frame_pool.hpp"
#include "stats.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

Spans::Scope::Scope(Spans& s, const char* name) : s_(s) {
  idx_ = static_cast<int>(s_.spans_.size());
  s_.spans_.push_back(Span{name, s_.now(), 0, s_.open_});
  s_.open_ = idx_;
}

Spans::Scope::~Scope() {
  s_.spans_[idx_].t1 = s_.now();
  s_.open_ = s_.spans_[idx_].parent;
}

std::map<std::string, double> Spans::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].t1 - spans_[i].t0;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.t1 - s.t0;
  }
  std::map<std::string, double> out;
  std::map<std::string, int> calls;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
    ++calls[spans_[i].name];
  }
  for (auto& [name, s] : out) s /= calls[name];
  return out;
}

bool Spans::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\": " << json_string(s.name)
      << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
      << ", \"ts\": " << format_number(s.t0 * 1e6)
      << ", \"dur\": " << format_number((s.t1 - s.t0) * 1e6) << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  d.fabric_packets -= o.fabric_packets;
  d.fabric_bytes -= o.fabric_bytes;
  d.coll_forwards -= o.coll_forwards;
  d.coll_combines -= o.coll_combines;
  d.rdma_rx_chunks -= o.rdma_rx_chunks;
  d.reg_hits -= o.reg_hits;
  d.reg_misses -= o.reg_misses;
  d.reg_evictions -= o.reg_evictions;
  for (std::size_t i = 0; i < d.ledger_ps.size(); ++i) {
    d.ledger_ps[i] -= o.ledger_ps[i];
  }
  d.fm_packets_sent -= o.fm_packets_sent;
  d.fm_handler_starts -= o.fm_handler_starts;
  d.fm_handler_resumes -= o.fm_handler_resumes;
  d.fm_credit_stalls -= o.fm_credit_stalls;
  d.fm_credit_packets -= o.fm_credit_packets;
  d.copies.endpoint_copies -= o.copies.endpoint_copies;
  d.copies.endpoint_bytes -= o.copies.endpoint_bytes;
  d.copies.hop_copies -= o.copies.hop_copies;
  d.copies.hop_bytes -= o.copies.hop_bytes;
  d.copies.rdma_writes -= o.copies.rdma_writes;
  d.copies.rdma_bytes -= o.copies.rdma_bytes;
  d.pool_misses -= o.pool_misses;
  return d;
}

Counters snapshot(fmx::net::ParallelCluster& cl,
                  const std::vector<fmx::fm2::Endpoint*>& eps) {
  Counters c;
  const auto fs = cl.fabric_stats();
  c.fabric_packets = fs.packets;
  c.fabric_bytes = fs.payload_bytes;
  for (int i = 0; i < cl.size(); ++i) {
    auto& node = cl.node(i);
    const auto& ns = node.nic().stats();
    c.coll_forwards += ns.coll_forwards;
    c.coll_combines += ns.coll_combines;
    c.rdma_rx_chunks += ns.rdma_rx_chunks;
    const auto& rs = node.host().reg_cache().stats();
    c.reg_hits += rs.hits;
    c.reg_misses += rs.misses;
    c.reg_evictions += rs.evictions;
    const auto& ledger = node.host().ledger();
    for (std::size_t k = 0; k < c.ledger_ps.size(); ++k) {
      c.ledger_ps[k] += ledger.of(static_cast<fmx::sim::Cost>(k));
    }
  }
  for (const fmx::fm2::Endpoint* ep : eps) {
    const auto& st = ep->stats();
    c.fm_packets_sent += st.packets_sent;
    c.fm_handler_starts += st.handler_starts;
    c.fm_handler_resumes += st.handler_resumes;
    c.fm_credit_stalls += st.credit_stall_events;
    c.fm_credit_packets += st.credit_packets_sent;
  }
  c.copies = fmx::CopyStats::instance().snapshot();
  for (int s = 0; s < cl.n_shards(); ++s) {
    c.pool_misses += cl.shard_fabric(s).pool().stats().fresh_allocs;
  }
  return c;
}

void RunTotals::add(const RunTotals& o) {
  events += o.events;
  windows += o.windows;
  parks += o.parks;
  pending_roots += o.pending_roots;
  wall_s += o.wall_s;
  allocs += o.allocs;
  frames += o.frames;
}

RunTotals timed_run(fmx::net::ParallelCluster& cl, int threads,
                    fmx::net::ParallelCluster::RunResult* raw) {
  const std::uint64_t a0 = fmx::bench::alloc_hook_count();
  const std::uint64_t f0 = fmx::sim::frame_pool_stats().allocs;
  const auto t0 = Clock::now();
  const auto r = cl.run(threads);
  RunTotals t;
  t.wall_s = seconds_since(t0);
  t.allocs = fmx::bench::alloc_hook_count() - a0;
  t.frames = fmx::sim::frame_pool_stats().allocs - f0;
  t.events = r.events;
  t.windows = r.windows;
  t.parks = r.barrier_crossings;
  t.pending_roots = r.pending_roots;
  if (raw != nullptr) *raw = r;
  return t;
}

}  // namespace perfbench
