// Copyright (c) NetKernel reproduction authors.
// Per-layer accounting from the outside: counter snapshots of the public
// stats surfaces at the window edges, and the host tracer's stage histograms.

#include <sys/resource.h>

#include <algorithm>
#include <ctime>

#include "nkbench.h"

namespace nkbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Snap SnapTestbed(nk::bench::Testbed& tb, nk::core::Vm* vm, nk::core::Vm* peer) {
  nk::core::Host& host = tb.host_a();
  nk::obs::MetricsRegistry registry;
  host.BuildMetricsRegistry(&registry);
  Snap s;
  for (const std::string& name : registry.Names()) {
    if (registry.FindHistogram(name) == nullptr) s[name] = registry.Value(name);
  }
  s["sim.events"] = static_cast<double>(tb.loop().events_executed());
  double ce_busy = 0;
  for (int i = 0; i < host.num_ce_cores(); ++i) {
    ce_busy += static_cast<double>(host.ce_core(i)->busy_cycles());
  }
  s["x.ce_busy"] = ce_busy;
  s["x.svc_busy"] = static_cast<double>(vm->nsm()->TotalBusyCycles());
  s["x.guest_busy"] = static_cast<double>(vm->TotalBusyCycles());
  s["x.pool_allocs"] = static_cast<double>(vm->pool()->allocs());
  s["x.pool_alloc_failures"] = static_cast<double>(vm->pool()->alloc_failures());
  s["x.pool_chunks_in_use"] = static_cast<double>(vm->pool()->chunks_in_use());
  double packets = 0, drops = 0;
  for (size_t i = 0; i < tb.fabric().num_links(); ++i) {
    packets += static_cast<double>(tb.fabric().link(i)->delivered_packets());
    drops += static_cast<double>(tb.fabric().link(i)->drops());
  }
  s["x.packets"] = packets;
  s["x.link_drops"] = drops;
  s["x.nic_egress_drops"] =
      static_cast<double>(vm->nsm()->stack()->nic()->egress_drops() +
                          peer->guest_stack()->nic()->egress_drops());
  return s;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double SumMatching(const Snap& s, const std::string& prefix, const std::string& suffix) {
  double total = 0;
  for (auto it = s.lower_bound(prefix); it != s.end(); ++it) {
    const std::string& name = it->first;
    if (name.compare(0, prefix.size(), prefix) != 0) break;
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += it->second;
    }
  }
  return total;
}

void DeriveLayers(const Snap& begin, const Snap& end, double ops, nk::SimTime window,
                  Rep* rep) {
  auto delta = [&](const std::string& name) {
    auto b = begin.find(name);
    auto e = end.find(name);
    return (e == end.end() ? 0.0 : e->second) - (b == begin.end() ? 0.0 : b->second);
  };
  auto sum = [&](const std::string& prefix, const std::string& suffix) {
    return SumMatching(end, prefix, suffix) - SumMatching(begin, prefix, suffix);
  };
  auto per_op = [&](double x) { return ops > 0 ? x / ops : 0.0; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::map<std::string, double>& l = rep->layers;

  const double events = delta("sim.events");
  l["sim.events_per_op"] = per_op(events);

  l["netsim.packets_per_op"] = per_op(delta("x.packets"));
  l["netsim.link_drops"] = delta("x.link_drops");
  l["netsim.nic_egress_drops"] = delta("x.nic_egress_drops");

  l["tcp.segments_per_op"] =
      per_op(sum("nsm", ".tcp.segments_sent") + sum("nsm", ".tcp.segments_received"));
  l["tcp.retransmits"] = sum("nsm", ".tcp.retransmits");
  l["tcp.rto_fires"] = sum("nsm", ".tcp.rto_fires");
  l["tcp.rx_ring_drops"] = sum("nsm", ".tcp.rx_ring_drops");
  l["tcp.conns_established"] = sum("nsm", ".tcp.conns_established");

  l["udp.datagrams_per_op"] =
      per_op(sum("nsm", ".udp.datagrams_sent") + sum("nsm", ".udp.datagrams_received"));
  l["udp.rx_queue_drops"] = sum("nsm", ".udp.rx_queue_drops");
  l["udp.rx_ring_drops"] = sum("nsm", ".udp.rx_ring_drops");

  l["shm.pool_allocs_per_op"] = per_op(delta("x.pool_allocs"));
  l["shm.pool_alloc_failures"] = delta("x.pool_alloc_failures");

  l["guard.validated_per_op"] = per_op(delta("guard.validated"));
  l["guard.rejects"] = delta("guard.rejects");

  const double switched = sum("ce.shard", ".nqes_switched");
  l["ce.nqes_per_op"] = per_op(switched);
  l["ce.nqes_per_round"] = ratio(switched, sum("ce.shard", ".rounds"));
  l["ce.busy_cycles_per_op"] = per_op(delta("x.ce_busy"));
  l["ce.deferred"] = sum("ce.shard", ".deliveries_deferred");
  l["ce.dropped"] = sum("ce.shard", ".nqes_dropped");
  l["ce.throttled"] = sum("ce.shard", ".throttled_nqes");
  l["ce.migrations"] = sum("ce.shard", ".qset_migrations");

  l["svc.nqes_per_op"] = per_op(sum("nsm", ".svc.nqes_processed"));
  l["svc.busy_cycles_per_op"] = per_op(delta("x.svc_busy"));
  const double rung = sum("nsm", ".svc.doorbells");
  const double coalesced = sum("nsm", ".svc.doorbells_coalesced");
  l["svc.doorbells_per_op"] = per_op(rung);
  l["svc.doorbell_coalesce_ratio"] = ratio(coalesced, rung + coalesced);
  const double zc = sum("nsm", ".svc.rx_zc_ships") + sum("nsm", ".svc.dgram_zc_ships");
  const double copied = sum("nsm", ".svc.rx_copy_ships") + sum("nsm", ".svc.dgram_copy_ships");
  l["svc.rx_zc_ratio"] = ratio(zc, zc + copied);
  l["svc.drops"] = sum("nsm", ".svc.nqes_dropped") + sum("nsm", ".svc.guard_drops");

  l["guest.nqes_sent_per_op"] = per_op(sum("vm", ".guest.nqes_sent"));
  l["guest.nqes_received_per_op"] = per_op(sum("vm", ".guest.nqes_received"));
  l["guest.busy_cycles_per_op"] = per_op(delta("x.guest_busy"));
  l["guest.send_credit_reclaims"] = sum("vm", ".guest.send_credit_reclaims");

  rep->modeled["nqes_per_sec"] = switched / nk::ToSeconds(window);
  rep->modeled["cpu_cycles_per_op"] =
      per_op(delta("x.ce_busy") + delta("x.svc_busy") + delta("x.guest_busy"));
  rep->window_events = events;
  rep->window_ce_nqes = switched;
}

namespace {
constexpr const char* kStageNames[nk::obs::kNumTraceDeltas] = {
    "ring_queueing", "switch", "stack_service", "completion"};
}  // namespace

void AddTraceStages(const nk::obs::Tracer& tracer, uint8_t vm_id, Rep* rep) {
  for (int d = 0; d < nk::obs::kNumTraceDeltas; ++d) {
    const nk::obs::Histogram& h = tracer.VmDelta(vm_id, static_cast<nk::obs::TraceDelta>(d));
    const std::string base = std::string("trace.") + kStageNames[d];
    rep->layers[base + "_p50_ns"] = h.Percentile(50);
    rep->layers[base + "_p99_ns"] = h.Percentile(99);
  }
  rep->layers["trace.samples"] = static_cast<double>(tracer.samples_started());
}

void AddLatency(const nk::Summary& us, Rep* rep) {
  rep->modeled["p50_us"] = us.Percentile(50);
  rep->modeled["p99_us"] = us.Percentile(99);
  rep->modeled["p999_us"] = us.Percentile(99.9);
  for (const char* name : {"p50_us", "p99_us", "p999_us"}) rep->samples[name] = us.Count();
  rep->layers["lat.samples"] = static_cast<double>(us.Count());
}

}  // namespace nkbench
