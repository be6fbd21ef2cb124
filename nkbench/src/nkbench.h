// Copyright (c) NetKernel reproduction authors.
// nkbench: shared types of the repository benchmark.
//
// A workload run is a sequence of repetitions. Each repetition builds its own
// topology from the workload seed, warms up in virtual time, measures a fixed
// virtual window, drains, and checks the outputs. Modeled (virtual-time)
// results therefore repeat bit for bit across repetitions of one seed, and
// host (process CPU time) results are taken as medians over repetitions.

#ifndef NKBENCH_SRC_NKBENCH_H_
#define NKBENCH_SRC_NKBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace nkbench {

namespace nk = netkernel;

// Process CPU time (CLOCK_PROCESS_CPUTIME_ID), in seconds.
double ProcessCpuSeconds();
// Peak resident set size of this process, in MiB.
double PeakRssMb();
double Median(std::vector<double> v);

// Runs a measured window in slices and times a fixed reference loop (see
// reference.cc) after each slice, so that host time can be normalized by how
// fast this host was while the window ran: a host-time value v measured with
// a reference step cost r is reported as v * kReferenceStepNs / r.
struct HostClock {
  void Run(nk::sim::EventLoop& loop, nk::SimTime until);
  double RefNsPerStep() const { return ref_cpu_s * 1e9 / ref_steps; }
  double loop_cpu_s = 0;  // CPU s of the sliced loop.Run calls
  double ref_cpu_s = 0;
  double ref_steps = 0;
};
constexpr double kReferenceStepNs = 100;

// Failed output checks. A run with any failure reports no numbers.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

// What one repetition yields.
struct Rep {
  // End-to-end modeled metrics (krps, p50_us, ...) and per-layer counters,
  // both in virtual time: identical across repetitions of one seed.
  std::map<std::string, double> modeled;
  std::map<std::string, double> layers;
  // Sample count behind each latency metric.
  std::map<std::string, uint64_t> samples;
  uint64_t attempted = 0;  // ops attempted in the window
  uint64_t failed = 0;     // of those, failed, lost or dropped
  double ops = 0;          // ops completed in the window (host_ns_per_op divisor)
  // Host-time results.
  double setup_s = 0;       // CPU s from topology construction to window start
  double window_cpu_s = 0;  // CPU s spent running the window
  double ref_ns_per_step = 0;  // reference step cost measured during the window
  double window_events = 0;
  double window_ce_nqes = 0;
};

using WorkloadFn = Rep (*)(uint64_t seed, bool traced, Checks* checks);

Rep RunUdpKv(uint64_t seed, bool traced, Checks* checks);
Rep RunTcpStream(uint64_t seed, bool traced, Checks* checks);
Rep RunTcpRpc(uint64_t seed, bool traced, Checks* checks);
Rep RunCeSwitch(uint64_t seed, bool traced, Checks* checks);

// udp_kv capacity: the highest rate of a fixed ladder that meets the latency
// limit with no growing backlog and a fail ratio of at most 0.1%.
double UdpKvMaxKrps(uint64_t seed, bool traced, Checks* checks);

// Microdrivers: host ns per call of the real datapath code, with their
// measured / modeled ratios. Keys are per-layer metric names.
std::map<std::string, double> RunMicrodrivers(double budget_s, Checks* checks);

// ---- Per-layer accounting ----
// Counter snapshot of the measured host, read from its public stats
// surfaces (Host::BuildMetricsRegistry, stats() accessors, core busy cycles).
using Snap = std::map<std::string, double>;
Snap SnapTestbed(nk::bench::Testbed& tb, nk::core::Vm* vm, nk::core::Vm* peer);
// Fills rep->layers from the window's counter deltas, and the shared modeled
// end-to-end metrics nqes_per_sec and cpu_cycles_per_op.
void DeriveLayers(const Snap& begin, const Snap& end, double ops, nk::SimTime window,
                  Rep* rep);
// trace.* stage percentiles from the host tracer for `vm`.
void AddTraceStages(const nk::obs::Tracer& tracer, uint8_t vm_id, Rep* rep);

// Latency percentiles of `us` into rep->modeled (p50_us, p99_us, p999_us).
void AddLatency(const nk::Summary& us, Rep* rep);

// Sums snapshot entries whose name starts with `prefix` and ends with `suffix`.
double SumMatching(const Snap& s, const std::string& prefix, const std::string& suffix);

}  // namespace nkbench

#endif  // NKBENCH_SRC_NKBENCH_H_
