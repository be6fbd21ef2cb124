// Copyright (c) NetKernel reproduction authors.
// nkbench: measures one NetKernel workload end to end (--trace 0) or layer by
// layer (--trace 1) and prints the result as one JSON line.
//
//   nkbench --workload <udp_kv|tcp_stream|tcp_rpc|ce_switch> --seed <n>
//           --seconds <s> --trace <0|1>
//
// --seconds is the process CPU time to spend. Each repetition rebuilds the
// topology from the seed, so the modeled metrics of every repetition must be
// bit-identical; a difference fails the run as a determinism bug. The
// end-to-end host-time metrics (host_ns_per_op, setup_s) are medians over the
// repetitions, each normalized by the reference loop timed in slices
// interleaved with its window (see reference.cc); per-layer host metrics are
// raw CPU ns. The traced run repeats the
// untraced measurement, then measures again with 1-in-64 NQE lifecycle
// tracing on the measured host, then runs the microdrivers; per-layer
// counters come from the traced repetitions.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "nkbench.h"

namespace nkbench {
namespace {

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 40;

struct Workload {
  const char* name;
  WorkloadFn run;
};
constexpr Workload kWorkloads[] = {
    {"udp_kv", RunUdpKv},
    {"tcp_stream", RunTcpStream},
    {"tcp_rpc", RunTcpRpc},
    {"ce_switch", RunCeSwitch},
};

struct MetricDef {
  const char* name;
  const char* unit;
  const char* base;  // "host" (process CPU time) or "modeled" (virtual time)
};
constexpr MetricDef kEndToEnd[] = {
    {"host_ns_per_op", "ns", "host"},        {"setup_s", "s", "host"},
    {"peak_rss_mb", "MB", "host"},           {"krps", "krps", "modeled"},
    {"max_krps", "krps", "modeled"},         {"p50_us", "us", "modeled"},
    {"p99_us", "us", "modeled"},             {"p999_us", "us", "modeled"},
    {"goodput_gbps", "Gbps", "modeled"},     {"nqes_per_sec", "1/s", "modeled"},
    {"cpu_cycles_per_op", "cycles", "modeled"}, {"ok_ratio", "ratio", "modeled"},
};

// Every per-layer metric; a workload that does not exercise a layer reports 0.
// trace.overhead.<m> for each end-to-end metric <m> is appended in Layers().
constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_op", "count/op", "modeled"},
    {"sim.host_ns_per_event", "ns", "host"},
    {"sim.schedule_run_ns.pending1k", "ns", "host"},
    {"sim.schedule_run_ns.pending64k", "ns", "host"},
    {"sim.cancel_resched_ns", "ns", "host"},
    {"netsim.packets_per_op", "count/op", "modeled"},
    {"netsim.link_drops", "count", "modeled"},
    {"netsim.nic_egress_drops", "count", "modeled"},
    {"tcp.segments_per_op", "count/op", "modeled"},
    {"tcp.retransmits", "count", "modeled"},
    {"tcp.rto_fires", "count", "modeled"},
    {"tcp.rx_ring_drops", "count", "modeled"},
    {"tcp.conns_established", "count", "modeled"},
    {"udp.datagrams_per_op", "count/op", "modeled"},
    {"udp.rx_queue_drops", "count", "modeled"},
    {"udp.rx_ring_drops", "count", "modeled"},
    {"shm.pool_allocs_per_op", "count/op", "modeled"},
    {"shm.pool_alloc_failures", "count", "modeled"},
    {"shm.chunks_in_use_after_drain", "count", "modeled"},
    {"shm.ring_enqdeq_ns.b1", "ns", "host"},
    {"shm.ring_enqdeq_ns.b64", "ns", "host"},
    {"shm.pool_alloc_free_ns", "ns", "host"},
    {"guard.validated_per_op", "count/op", "modeled"},
    {"guard.rejects", "count", "modeled"},
    {"guard.validate_commit_ns", "ns", "host"},
    {"ce.nqes_per_op", "count/op", "modeled"},
    {"ce.nqes_per_round", "count", "modeled"},
    {"ce.busy_cycles_per_op", "cycles/op", "modeled"},
    {"ce.deferred", "count", "modeled"},
    {"ce.dropped", "count", "modeled"},
    {"ce.throttled", "count", "modeled"},
    {"ce.migrations", "count", "modeled"},
    {"ce.host_ns_per_nqe", "ns", "host"},
    {"svc.nqes_per_op", "count/op", "modeled"},
    {"svc.busy_cycles_per_op", "cycles/op", "modeled"},
    {"svc.doorbells_per_op", "count/op", "modeled"},
    {"svc.doorbell_coalesce_ratio", "ratio", "modeled"},
    {"svc.rx_zc_ratio", "ratio", "modeled"},
    {"svc.drops", "count", "modeled"},
    {"guest.nqes_sent_per_op", "count/op", "modeled"},
    {"guest.nqes_received_per_op", "count/op", "modeled"},
    {"guest.busy_cycles_per_op", "cycles/op", "modeled"},
    {"guest.send_credit_reclaims", "count", "modeled"},
    {"trace.ring_queueing_p50_ns", "ns", "modeled"},
    {"trace.ring_queueing_p99_ns", "ns", "modeled"},
    {"trace.switch_p50_ns", "ns", "modeled"},
    {"trace.switch_p99_ns", "ns", "modeled"},
    {"trace.stack_service_p50_ns", "ns", "modeled"},
    {"trace.stack_service_p99_ns", "ns", "modeled"},
    {"trace.completion_p50_ns", "ns", "modeled"},
    {"trace.completion_p99_ns", "ns", "modeled"},
    {"trace.samples", "count", "modeled"},
    {"gen.scheduled", "count", "modeled"},
    {"gen.issued", "count", "modeled"},
    {"gen.late_p99_us", "us", "modeled"},
    {"lat.samples", "count", "modeled"},
    {"fail_ratio", "ratio", "modeled"},
    {"model.ce_per_nqe_b1_ratio", "ratio", "host"},
    {"model.ce_per_nqe_b64_ratio", "ratio", "host"},
    {"model.guard_check_ratio", "ratio", "host"},
    {"host.raw_ns_per_op", "ns", "host"},
    {"host.ref_ns_per_step", "ns", "host"},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "nkbench: %s\nusage: nkbench --workload <udp_kv|tcp_stream|tcp_rpc|ce_switch> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("flag without a value");
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) a.workload = &w;
      }
      if (a.workload == nullptr) Usage("unknown workload");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) Usage("bad --trace");
      a.trace = v[0] - '0';
    } else {
      Usage("unknown flag");
    }
  }
  if (a.workload == nullptr || a.seconds <= 0 || a.trace < 0) Usage("missing flag");
  return a;
}

bool IsUdpKv(const Workload& w) { return std::strcmp(w.name, "udp_kv") == 0; }

struct Phase {
  std::vector<Rep> reps;
  double max_krps = 0;
  std::map<std::string, double> e2e;
  std::vector<double> raw_ns_per_op;  // per repetition, not normalized
};

// Compares every modeled value of `r` against repetition 0.
void CheckDeterminism(const Rep& first, const Rep& r, size_t index, uint64_t seed,
                      Checks* checks) {
  auto compare = [&](const std::map<std::string, double>& a,
                     const std::map<std::string, double>& b) {
    for (const auto& [name, value] : a) {
      auto it = b.find(name);
      if (it == b.end() || it->second != value) {
        char msg[256];
        std::snprintf(msg, sizeof(msg),
                      "determinism bug: %s is %.17g in repetition 0 but %.17g in repetition %zu "
                      "of seed %llu",
                      name.c_str(), value, it == b.end() ? NAN : it->second, index,
                      static_cast<unsigned long long>(seed));
        checks->Expect(false, msg);
      }
    }
  };
  compare(first.modeled, r.modeled);
  compare(first.layers, r.layers);
  checks->Expect(first.attempted == r.attempted && first.failed == r.failed,
                 "determinism bug: attempted/failed differ between repetitions");
}

Phase RunPhase(const Workload& w, uint64_t seed, bool traced, double budget_s, Checks* checks) {
  Phase p;
  const double t0 = ProcessCpuSeconds();
  if (IsUdpKv(w)) p.max_krps = UdpKvMaxKrps(seed, traced, checks);
  do {
    p.reps.push_back(w.run(seed, traced, checks));
    CheckDeterminism(p.reps.front(), p.reps.back(), p.reps.size() - 1, seed, checks);
  } while ((p.reps.size() < kMinReps || ProcessCpuSeconds() - t0 < budget_s) &&
           p.reps.size() < kMaxReps);

  p.e2e = p.reps.front().modeled;
  p.e2e["max_krps"] = IsUdpKv(w) ? p.max_krps : p.e2e["krps"];
  std::vector<double> ns_per_op, setup;
  for (size_t i = 0; i < p.reps.size(); ++i) {
    const Rep& r = p.reps[i];
    const double scale = kReferenceStepNs / r.ref_ns_per_step;
    p.raw_ns_per_op.push_back(r.window_cpu_s * 1e9 / r.ops);
    ns_per_op.push_back(p.raw_ns_per_op.back() * scale);
    setup.push_back(r.setup_s * scale);
  }
  p.e2e["host_ns_per_op"] = Median(ns_per_op);
  p.e2e["setup_s"] = Median(setup);
  p.e2e["peak_rss_mb"] = PeakRssMb();
  return p;
}

// Per-layer metrics of a traced run: counters of the traced repetitions,
// host time per event / per NQE from the untraced ones, microdrivers, and the
// tracing overhead on every end-to-end metric.
std::map<std::string, double> Layers(const Phase& untraced, const Phase& traced,
                                     const std::map<std::string, double>& micro) {
  std::map<std::string, double> l;
  for (const MetricDef& d : kPerLayer) l[d.name] = 0;
  for (const auto& [name, value] : traced.reps.front().layers) l[name] = value;
  for (const auto& [name, value] : micro) l[name] = value;
  std::vector<double> per_event, per_nqe;
  for (const Rep& r : untraced.reps) {
    per_event.push_back(r.window_cpu_s * 1e9 / r.window_events);
    per_nqe.push_back(r.window_cpu_s * 1e9 / r.window_ce_nqes);
  }
  l["sim.host_ns_per_event"] = Median(per_event);
  l["ce.host_ns_per_nqe"] = Median(per_nqe);
  l["host.raw_ns_per_op"] = Median(untraced.raw_ns_per_op);
  std::vector<double> ref_ns;
  for (const Rep& r : untraced.reps) ref_ns.push_back(r.ref_ns_per_step);
  l["host.ref_ns_per_step"] = Median(ref_ns);
  for (const MetricDef& d : kEndToEnd) {
    l[std::string("trace.overhead.") + d.name] = traced.e2e.at(d.name) - untraced.e2e.at(d.name);
  }
  return l;
}

// Unit and time base of a per-layer metric; trace.overhead.<m> takes <m>'s.
MetricDef LayerDef(const std::string& name) {
  for (const MetricDef& d : kPerLayer) {
    if (name == d.name) return d;
  }
  for (const MetricDef& d : kEndToEnd) {
    if (name == std::string("trace.overhead.") + d.name) return d;
  }
  return MetricDef{"", "", ""};
}

void PrintE2E(const char* title, const Phase& p) {
  std::printf("%s (%zu repetitions):\n", title, p.reps.size());
  std::printf("  raw host ns/op by repetition:");
  for (double v : p.raw_ns_per_op) std::printf(" %.0f", v);
  std::printf("\n  reference ns/step during them:");
  for (const Rep& r : p.reps) std::printf(" %.1f", r.ref_ns_per_step);
  std::printf("\n");
  const Rep& first = p.reps.front();
  for (const MetricDef& d : kEndToEnd) {
    std::printf("  %-18s %16.6f %-7s [%s]", d.name, p.e2e.at(d.name), d.unit, d.base);
    auto n = first.samples.find(d.name);
    if (n != first.samples.end()) std::printf("  samples=%llu", static_cast<unsigned long long>(n->second));
    std::printf("\n");
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<std::pair<std::string, std::pair<double, std::string>>>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                m[i].first.c_str(), m[i].second.first, m[i].second.second.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  const Workload& w = *a.workload;
  std::printf("nkbench %s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  Checks checks;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
  std::vector<const Phase*> phases;
  Phase untraced, traced;
  if (a.trace == 0) {
    untraced = RunPhase(w, a.seed, /*traced=*/false, a.seconds, &checks);
    PrintE2E("end-to-end", untraced);
    for (const MetricDef& d : kEndToEnd) out.push_back({d.name, {untraced.e2e.at(d.name), d.unit}});
    phases = {&untraced};
  } else {
    untraced = RunPhase(w, a.seed, /*traced=*/false, 0.35 * a.seconds, &checks);
    traced = RunPhase(w, a.seed, /*traced=*/true, 0.35 * a.seconds, &checks);
    PrintE2E("end-to-end, untraced", untraced);
    PrintE2E("end-to-end, 1-in-64 NQE tracing", traced);
    const std::map<std::string, double> micro = RunMicrodrivers(0.2 * a.seconds, &checks);
    std::printf("per-layer:\n");
    for (const auto& [name, value] : Layers(untraced, traced, micro)) {
      const MetricDef d = LayerDef(name);
      std::printf("  %-36s %16.6f %-9s [%s]\n", name.c_str(), value, d.unit, d.base);
      out.push_back({name, {value, d.unit}});
    }
    phases = {&untraced, &traced};
  }
  uint64_t attempted = 0, failed = 0;
  for (const Phase* p : phases) {
    for (const Rep& r : p->reps) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  for (const auto& [name, v] : out) {
    checks.Expect(std::isfinite(v.first), "metric " + name + " is not finite");
  }
  if (!checks.ok()) {
    for (const std::string& f : checks.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());
    PrintJson(false, attempted, failed, {});
    return 1;
  }
  PrintJson(true, attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace nkbench

int main(int argc, char** argv) { return nkbench::Main(argc, argv); }
