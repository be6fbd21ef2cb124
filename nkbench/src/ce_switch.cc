// Copyright (c) NetKernel reproduction authors.
// ce_switch: the Fig 11b raw-device experiment. 8 VM devices x 2 queue sets
// keep their send rings backlogged with datagram NQEs toward 4 NSM devices through a
// 4-shard CoreEngine (batch 64, nkguard on: the production default). No
// stacks are involved, so the real CoreEngineShard, NqeValidator and
// SpscRing code does most of the host work.
//
// The refiller stamps each NQE's data_ptr with its enqueue instant (the
// validator has no pool registered for raw devices, so the field is not
// checked), and the consumer times every 16th NQE from enqueue to its
// arrival in an NSM ring.

#include <memory>

#include "nkbench.h"

namespace nkbench {
namespace {

using nk::SimTime;
using nk::shm::MakeNqe;
using nk::shm::Nqe;
using nk::shm::NqeOp;

constexpr int kShards = 4;
constexpr int kVmDevs = 8;
constexpr int kQsetsPerVm = 2;
constexpr int kNsms = 4;
constexpr int kNsmQsets = 8;
constexpr uint32_t kNqePayload = 64;
// Every kRefillPeriod each send ring is topped up to kRingDepth NQEs: more
// than a shard drains from it per period, so the switch never idles, while
// the backlog (and so the NQE sojourn time) stays bounded.
constexpr size_t kRingDepth = 512;
constexpr SimTime kRefillPeriod = 20 * nk::kMicrosecond;
constexpr SimTime kDrainPeriod = nk::kMicrosecond;
constexpr SimTime kWarmup = 2 * nk::kMillisecond;
constexpr SimTime kWindow = 4 * nk::kMillisecond;
constexpr SimTime kDrain = 5 * nk::kMillisecond;  // > the NQE sojourn p999
constexpr uint64_t kLatencySampleEvery = 16;

}  // namespace

Rep RunCeSwitch(uint64_t seed, bool traced, Checks* checks) {
  const double cpu0 = ProcessCpuSeconds();
  nk::sim::EventLoop loop;
  std::vector<std::unique_ptr<nk::sim::CpuCore>> cores;
  std::vector<nk::sim::CpuCore*> core_ptrs;
  for (int i = 0; i < kShards; ++i) {
    cores.push_back(std::make_unique<nk::sim::CpuCore>(&loop, "ce" + std::to_string(i)));
    core_ptrs.push_back(cores.back().get());
  }
  nk::core::CoreEngineConfig cfg;
  cfg.batch = 64;
  cfg.pending_bound = 8192;  // the consumer, not the park, absorbs bursts
  cfg.guard.enabled = true;
  nk::core::CoreEngine ce(&loop, core_ptrs, cfg);
  std::unique_ptr<nk::obs::Tracer> tracer;
  if (traced) {
    tracer = std::make_unique<nk::obs::Tracer>(&loop);
    ce.SetTracer(tracer.get());
  }

  std::vector<std::unique_ptr<nk::shm::NkDevice>> nsm_devs;
  for (int n = 0; n < kNsms; ++n) {
    nsm_devs.push_back(std::make_unique<nk::shm::NkDevice>("nsm" + std::to_string(n), kNsmQsets));
    ce.RegisterNsmDevice(static_cast<uint8_t>(n + 1), nsm_devs.back().get());
  }
  std::vector<std::unique_ptr<nk::shm::NkDevice>> vm_devs;
  for (int v = 0; v < kVmDevs; ++v) {
    vm_devs.push_back(std::make_unique<nk::shm::NkDevice>("vm" + std::to_string(v), kQsetsPerVm));
    const uint8_t vm_id = static_cast<uint8_t>(v + 1);
    ce.RegisterVmDevice(vm_id, vm_devs.back().get());
    ce.AssignVmToNsm(vm_id, static_cast<uint8_t>(v % kNsms + 1));
    // One datagram socket per queue set, so every NQE takes the table path.
    for (int qs = 0; qs < kQsetsPerVm; ++qs) {
      vm_devs.back()->queue_set(qs).job.TryEnqueue(
          MakeNqe(NqeOp::kSocketUdp, vm_id, static_cast<uint8_t>(qs), static_cast<uint32_t>(qs)));
    }
    ce.NotifyVmOutbound(vm_id);
  }
  loop.Run(loop.Now() + nk::kMillisecond);

  SimTime window_begin = 0, window_end = 0;
  uint64_t drained = 0;        // kSendTo NQEs that reached an NSM ring
  uint64_t socket_nqes = 0;    // kSocketUdp NQEs that reached an NSM ring
  uint64_t foreign = 0;        // anything else: the switch invented an NQE
  uint64_t window_bytes = 0;   // payload bytes named by NQEs drained in the window
  nk::Summary latency_us;
  Nqe buf[256];
  auto drain_nsms = [&] {
    const SimTime now = loop.Now();
    const bool in_window = now >= window_begin && now < window_end;
    for (auto& dev : nsm_devs) {
      for (int qs = 0; qs < dev->num_queue_sets(); ++qs) {
        nk::shm::QueueSet& q = dev->queue_set(qs);
        for (auto* ring : {&q.send, &q.job}) {
          while (size_t n = ring->DequeueBatch(buf, 256)) {
            for (size_t i = 0; i < n; ++i) {
              if (buf[i].Op() == NqeOp::kSocketUdp) {
                ++socket_nqes;
                continue;
              }
              if (buf[i].Op() != NqeOp::kSendTo) {
                ++foreign;
                continue;
              }
              if (in_window) {
                window_bytes += buf[i].size;
                if (drained % kLatencySampleEvery == 0) {
                  latency_us.Add(static_cast<double>(now - static_cast<SimTime>(buf[i].data_ptr)) /
                                 nk::kMicrosecond);
                }
              }
              ++drained;
            }
          }
        }
      }
    }
  };
  drain_nsms();

  uint64_t enqueued = 0;
  auto refill = [&](int v) {
    const uint8_t vm_id = static_cast<uint8_t>(v + 1);
    for (int qs = 0; qs < kQsetsPerVm; ++qs) {
      auto& ring = vm_devs[static_cast<size_t>(v)]->queue_set(qs).send;
      while (ring.Size() < kRingDepth) {
        Nqe nqe = MakeNqe(NqeOp::kSendTo, vm_id, static_cast<uint8_t>(qs),
                          static_cast<uint32_t>(qs), 0, static_cast<uint64_t>(loop.Now()),
                          kNqePayload);
        if (tracer) tracer->OnGuestEnqueue(&nqe);  // T0, as GuestLib would stamp it
        NK_CHECK(ring.TryEnqueue(nqe));
        ++enqueued;
      }
      ce.NotifyVmOutbound(vm_id, qs);
    }
  };

  window_begin = loop.Now() + kWarmup;
  window_end = window_begin + kWindow;
  nk::Rng rng(seed);
  // Each VM refills once per period at a seeded random offset, so the VMs'
  // bursts interleave differently from period to period and the window
  // averages over many interleavings.
  for (SimTime period = loop.Now(); period < window_end; period += kRefillPeriod) {
    for (int v = 0; v < kVmDevs; ++v) {
      const SimTime t = period + static_cast<SimTime>(rng.NextBounded(kRefillPeriod));
      loop.Schedule(t, [&refill, v] { refill(v); });
    }
  }
  for (SimTime t = loop.Now(); t < window_end + kDrain; t += kDrainPeriod) {
    loop.Schedule(t, drain_nsms);
  }

  auto snap = [&] {
    Snap s;
    double busy = 0;
    for (int i = 0; i < ce.num_shards(); ++i) {
      const nk::core::CoreEngineStats& st = ce.shard(i).stats();
      const std::string p = "ce.shard" + std::to_string(i) + ".";
      s[p + "nqes_switched"] = static_cast<double>(st.nqes_switched);
      s[p + "rounds"] = static_cast<double>(st.rounds);
      s[p + "deliveries_deferred"] = static_cast<double>(st.deliveries_deferred);
      s[p + "nqes_dropped"] = static_cast<double>(st.nqes_dropped);
      s[p + "throttled_nqes"] = static_cast<double>(st.throttled_nqes);
      s[p + "qset_migrations"] = static_cast<double>(st.qset_migrations);
      busy += static_cast<double>(ce.shard(i).core()->busy_cycles());
    }
    s["x.ce_busy"] = busy;
    s["guard.validated"] = static_cast<double>(ce.validator().stats().validated);
    s["guard.rejects"] = static_cast<double>(ce.validator().stats().rejects);
    s["sim.events"] = static_cast<double>(loop.events_executed());
    return s;
  };

  loop.Run(window_begin);
  const Snap s0 = snap();
  if (tracer) tracer->set_sample_every(64);
  const double cpu1 = ProcessCpuSeconds();
  HostClock clock;
  clock.Run(loop, window_end);
  const Snap s1 = snap();
  if (tracer) tracer->set_sample_every(0);

  Rep rep;
  rep.setup_s = cpu1 - cpu0;
  rep.window_cpu_s = clock.loop_cpu_s;
  rep.ref_ns_per_step = clock.RefNsPerStep();
  const double switched = SumMatching(s1, "ce.shard", ".nqes_switched") -
                          SumMatching(s0, "ce.shard", ".nqes_switched");
  const double dropped = SumMatching(s1, "ce.shard", ".nqes_dropped") -
                         SumMatching(s0, "ce.shard", ".nqes_dropped");
  rep.ops = switched;
  DeriveLayers(s0, s1, rep.ops, kWindow, &rep);
  if (tracer) {
    nk::obs::Histogram queueing, switching;
    for (int i = 0; i < ce.num_shards(); ++i) {
      queueing.Merge(tracer->ShardDelta(static_cast<uint32_t>(i),
                                       nk::obs::TraceDelta::kRingQueueing));
      switching.Merge(tracer->ShardDelta(static_cast<uint32_t>(i), nk::obs::TraceDelta::kSwitch));
    }
    rep.layers["trace.ring_queueing_p50_ns"] = queueing.Percentile(50);
    rep.layers["trace.ring_queueing_p99_ns"] = queueing.Percentile(99);
    rep.layers["trace.switch_p50_ns"] = switching.Percentile(50);
    rep.layers["trace.switch_p99_ns"] = switching.Percentile(99);
    rep.layers["trace.samples"] = static_cast<double>(tracer->samples_started());
  }

  // NQEs queued at the window end are delivered within kDrain; the last
  // manual drain collects what arrived after the final scheduled one.
  loop.Run(window_end + kDrain);
  drain_nsms();

  const double window_s = nk::ToSeconds(kWindow);
  rep.attempted = static_cast<uint64_t>(switched + dropped);
  rep.failed = static_cast<uint64_t>(dropped);
  const double fail_ratio = rep.attempted > 0 ? dropped / (switched + dropped) : 1.0;
  rep.modeled["krps"] = switched / window_s / 1e3;
  rep.modeled["goodput_gbps"] = static_cast<double>(window_bytes) * 8 / window_s / 1e9;
  rep.modeled["ok_ratio"] = 1.0 - fail_ratio;
  AddLatency(latency_us, &rep);
  rep.layers["fail_ratio"] = fail_ratio;
  rep.layers["gen.issued"] = static_cast<double>(enqueued);

  const nk::core::CoreEngineStats total = ce.stats();
  uint64_t per_shard = 0, per_vm = 0;
  for (int i = 0; i < ce.num_shards(); ++i) per_shard += ce.shard(i).stats().nqes_switched;
  for (int v = 0; v < kVmDevs; ++v) per_vm += ce.VmStats(static_cast<uint8_t>(v + 1)).switched;
  uint64_t left_in_vm_rings = 0;
  for (auto& dev : vm_devs) {
    for (int qs = 0; qs < dev->num_queue_sets(); ++qs) left_in_vm_rings += dev->queue_set(qs).send.Size();
  }
  checks->Expect(switched > 0, "ce_switch switched no NQE in the window");
  checks->Expect(per_shard == total.nqes_switched, "per-shard switched NQEs do not sum to the total");
  checks->Expect(per_vm == total.nqes_switched, "per-VM switched NQEs do not sum to the total");
  checks->Expect(foreign == 0, "an NSM ring received an NQE no VM sent");
  checks->Expect(left_in_vm_rings == 0 && ce.ParkedDeliveries() == 0,
                 "ce_switch rings did not drain");
  checks->Expect(drained + socket_nqes == total.nqes_switched,
                 "NQEs arriving at NSM rings != NQEs the switch counted");
  checks->Expect(drained == enqueued, "NQEs arriving at NSM rings != NQEs the VMs enqueued");
  checks->Expect(ce.validator().stats().rejects == 0, "nkguard rejected benign NQEs (ce_switch)");
  return rep;
}

}  // namespace nkbench
