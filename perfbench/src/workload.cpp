#include "workload.hpp"

#include <string>

namespace perfbench {

void add_layer_counts(PassResult& r, const Counters& d, const RunTotals& rt,
                      double ops, double msgs) {
  using fmx::sim::Cost;
  const auto ev = static_cast<double>(rt.events);
  r.sim["sim.events_per_op"] = per(ev, ops);
  r.meters["sim.events_per_s"] = per(ev, rt.wall_s);
  r.meters["sim.allocs_per_event"] = per(static_cast<double>(rt.allocs), ev);
  r.meters["sim.frames_per_event"] = per(static_cast<double>(rt.frames), ev);
  r.meters["par.events_per_window"] =
      per(ev, static_cast<double>(rt.windows));
  r.meters["par.parks_per_kwindow"] =
      per(1000.0 * static_cast<double>(rt.parks),
          static_cast<double>(rt.windows));

  r.sim["fabric.packets_per_op"] =
      per(static_cast<double>(d.fabric_packets), ops);
  r.sim["fabric.bytes_per_op"] = per(static_cast<double>(d.fabric_bytes), ops);
  r.sim["nic.coll_forwards_per_op"] =
      per(static_cast<double>(d.coll_forwards), ops);
  r.sim["nic.coll_combines_per_op"] =
      per(static_cast<double>(d.coll_combines), ops);
  r.sim["regcache.hit_ratio"] =
      per(static_cast<double>(d.reg_hits),
          static_cast<double>(d.reg_hits + d.reg_misses));
  r.sim["regcache.evictions"] = static_cast<double>(d.reg_evictions);

  static constexpr Cost kLedger[] = {
      Cost::kCall,     Cost::kCopy,  Cost::kHeader,
      Cost::kPio,      Cost::kDma,   Cost::kDispatch,
      Cost::kMatch,    Cost::kBufferMgmt, Cost::kFlowCtl};
  for (Cost c : kLedger) {
    const auto ps = d.ledger_ps[static_cast<std::size_t>(c)];
    r.sim["host." + std::string(fmx::sim::cost_name(c)) + "_us_per_msg"] =
        per(us(ps), msgs);
  }

  r.sim["fm2.packets_per_msg"] =
      per(static_cast<double>(d.fm_packets_sent), msgs);
  r.sim["fm2.handler_resumes_per_msg"] =
      per(static_cast<double>(d.fm_handler_resumes), msgs);
  r.sim["fm2.credit_stalls_per_msg"] =
      per(static_cast<double>(d.fm_credit_stalls), msgs);
  r.sim["fm2.handler_starts_per_op"] =
      per(static_cast<double>(d.fm_handler_starts), ops);
  r.sim["fm2.credit_packets_per_msg"] =
      per(static_cast<double>(d.fm_credit_packets), msgs);
  r.sim["copy.endpoint_copies_per_msg"] =
      per(static_cast<double>(d.copies.endpoint_copies), msgs);
  r.sim["copy.hop_copies"] = static_cast<double>(d.copies.hop_copies);
  r.sim["pool.misses"] = static_cast<double>(d.pool_misses);
}

}  // namespace perfbench
