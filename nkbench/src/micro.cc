// Copyright (c) NetKernel reproduction authors.
// Microdrivers: host CPU ns per call of the real datapath code, each next to
// the tcp::NetkernelCosts constant that models it (the measured / modeled
// ratio is the outside-in check that a modeled cost matches its code).

#include <cstdio>
#include <functional>
#include <iterator>

#include "nkbench.h"

namespace nkbench {
namespace {

constexpr int kRounds = 5;

// Median over kRounds rounds of host ns per call. `batch` performs some calls
// and returns how many; each round repeats it until its share of the budget
// is spent.
double NsPerCall(double budget_s, const std::function<double()>& batch) {
  batch();  // warm caches and lazy set-up
  std::vector<double> per_round;
  for (int r = 0; r < kRounds; ++r) {
    const double t0 = ProcessCpuSeconds();
    double calls = 0, t1 = t0;
    do {
      calls += batch();
      t1 = ProcessCpuSeconds();
    } while (t1 - t0 < budget_s / kRounds);
    per_round.push_back((t1 - t0) * 1e9 / calls);
  }
  return Median(per_round);
}

uint64_t XorShift(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

// EventLoop hold model: `pending` events stay queued; each fired event
// schedules its successor at a random delay, so one call is a Schedule plus
// the Run step that pops and fires it.
double ScheduleRunNs(int pending, double budget_s) {
  nk::sim::EventLoop loop;
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  const uint64_t spread = 2 * static_cast<uint64_t>(pending);
  std::function<void()> fire = [&] {
    loop.ScheduleAfter(static_cast<nk::SimTime>(1 + XorShift(&rng) % spread), fire);
  };
  for (int i = 0; i < pending; ++i) {
    loop.Schedule(static_cast<nk::SimTime>(XorShift(&rng) % spread), fire);
  }
  return NsPerCall(budget_s, [&] {
    const uint64_t before = loop.events_executed();
    loop.Run(loop.Now() + 4096);  // ~4096 events: one fires per ns of virtual time
    return static_cast<double>(loop.events_executed() - before);
  });
}

// TcpStack::ArmRto pattern: every segment cancels a socket's timer and arms a
// fresh one 200 us out; cancelled events stay queued until their deadline.
double CancelReschedNs(double budget_s) {
  constexpr int kSockets = 64;
  constexpr nk::SimTime kRto = 200 * nk::kMicrosecond;
  nk::sim::EventLoop loop;
  std::vector<nk::sim::EventHandle> timers(kSockets);
  uint64_t fired = 0;
  return NsPerCall(budget_s, [&] {
    for (int round = 0; round < 64; ++round) {
      for (auto& h : timers) {
        h.Cancel();
        h = loop.Schedule(loop.Now() + kRto, [&fired] { ++fired; });
      }
      loop.Run(loop.Now() + nk::kMicrosecond);
    }
    return 64.0 * kSockets;
  });
}

// SpscRing<Nqe> enqueue + dequeue of `batch` NQEs per call pair; ns per NQE.
double RingNs(size_t batch, double budget_s, uint64_t* sink) {
  nk::shm::SpscRing<nk::shm::Nqe> ring(nk::shm::NkDevice::kDefaultQueueCapacity);
  std::vector<nk::shm::Nqe> in(batch), out(batch);
  for (size_t i = 0; i < batch; ++i) {
    in[i] = nk::shm::MakeNqe(nk::shm::NqeOp::kSendTo, 1, 0, 1, i, 0, 64);
  }
  return NsPerCall(budget_s, [&] {
    for (int i = 0; i < 256; ++i) {
      ring.EnqueueBatch(in.data(), batch);
      const size_t n = ring.DequeueBatch(out.data(), batch);
      *sink += n + out[0].op_data;
    }
    return 256.0 * static_cast<double>(batch);
  });
}

// HugepagePool Alloc + Free of mixed size classes; ns per pair.
double PoolNs(double budget_s, uint64_t* sink) {
  nk::shm::HugepagePool pool(16 * nk::kMiB);
  constexpr uint32_t kSizes[] = {64, 100, 1024, 2048, 9000, 65536};
  std::vector<uint64_t> offsets(64);
  return NsPerCall(budget_s, [&] {
    for (size_t i = 0; i < offsets.size(); ++i) {
      offsets[i] = pool.Alloc(kSizes[i % std::size(kSizes)]);
    }
    for (uint64_t off : offsets) {
      *sink += off;
      pool.Free(off);
    }
    return static_cast<double>(offsets.size());
  });
}

// NqeValidator::ValidateGuestNqe + CommitGuestNqe on pool-backed kSend NQEs
// (the chunk and replay checks run). Chunks are re-allocated between batches
// so every NQE names a fresh incarnation, as real traffic does; the
// re-allocation is outside the timed calls.
double GuardNs(double budget_s, Checks* checks) {
  constexpr int kChunks = 256;
  nk::shm::HugepagePool pool(16 * nk::kMiB);
  nk::guard::NqeValidator validator;
  validator.RegisterVmPool(1, &pool);
  std::vector<nk::shm::Nqe> nqes(kChunks);
  auto refresh = [&](bool free_first) {
    for (nk::shm::Nqe& n : nqes) {
      if (free_first) pool.Free(n.data_ptr);
      n = nk::shm::MakeNqe(nk::shm::NqeOp::kSend, 1, 0, 1, 0, pool.Alloc(2048), 1024);
    }
  };
  refresh(false);
  uint64_t rejects = 0;
  std::vector<double> per_round;
  for (int r = 0; r < kRounds + 1; ++r) {  // round 0 warms up
    double ns = 0, calls = 0;
    while (ns < budget_s / kRounds * 1e9) {
      const double t0 = ProcessCpuSeconds();
      for (nk::shm::Nqe& n : nqes) {
        if (validator.ValidateGuestNqe(&n, /*from_send_ring=*/true, 1, 0) ==
            nk::guard::Verdict::kOk) {
          validator.CommitGuestNqe(1, n);
        } else {
          ++rejects;
        }
      }
      ns += (ProcessCpuSeconds() - t0) * 1e9;
      calls += kChunks;
      refresh(true);
    }
    if (r > 0) per_round.push_back(ns / calls);
  }
  checks->Expect(rejects == 0, "microdriver: NqeValidator rejected a well-formed kSend NQE");
  return Median(per_round);
}

double CyclesToNs(nk::Cycles c) { return static_cast<double>(c) / nk::kCpuHz * 1e9; }

void PrintVsModel(const char* name, double measured_ns, const char* model, nk::Cycles cycles) {
  std::printf("  %-28s %9.2f ns   model %-24s %4llu cycles = %6.2f ns   measured/modeled %7.2f\n",
              name, measured_ns, model, static_cast<unsigned long long>(cycles),
              CyclesToNs(cycles), measured_ns / CyclesToNs(cycles));
}

}  // namespace

std::map<std::string, double> RunMicrodrivers(double budget_s, Checks* checks) {
  const double each = budget_s / 7;
  uint64_t sink = 0;
  std::map<std::string, double> m;
  m["sim.schedule_run_ns.pending1k"] = ScheduleRunNs(1024, each);
  m["sim.schedule_run_ns.pending64k"] = ScheduleRunNs(65536, each);
  m["sim.cancel_resched_ns"] = CancelReschedNs(each);
  m["shm.ring_enqdeq_ns.b1"] = RingNs(1, each, &sink);
  m["shm.ring_enqdeq_ns.b64"] = RingNs(64, each, &sink);
  m["shm.pool_alloc_free_ns"] = PoolNs(each, &sink);
  m["guard.validate_commit_ns"] = GuardNs(each, checks);
  checks->Expect(sink != 0, "microdriver results were optimized away");

  const nk::tcp::NetkernelCosts costs;
  std::printf("microdrivers (host CPU ns per call, median of %d rounds):\n", kRounds);
  std::printf("  %-28s %9.2f ns\n", "sim.schedule_run_ns.pending1k",
              m["sim.schedule_run_ns.pending1k"]);
  std::printf("  %-28s %9.2f ns\n", "sim.schedule_run_ns.pending64k",
              m["sim.schedule_run_ns.pending64k"]);
  std::printf("  %-28s %9.2f ns\n", "sim.cancel_resched_ns", m["sim.cancel_resched_ns"]);
  std::printf("  %-28s %9.2f ns\n", "shm.pool_alloc_free_ns", m["shm.pool_alloc_free_ns"]);
  // A switched NQE costs two ring copies plus a table lookup in the model;
  // the ring microdriver times the two copies.
  PrintVsModel("shm.ring_enqdeq_ns.b1", m["shm.ring_enqdeq_ns.b1"], "CePerNqe(1)",
               costs.CePerNqe(1));
  PrintVsModel("shm.ring_enqdeq_ns.b64", m["shm.ring_enqdeq_ns.b64"], "CePerNqe(64)",
               costs.CePerNqe(64));
  PrintVsModel("guard.validate_commit_ns", m["guard.validate_commit_ns"], "ce_guard_check",
               costs.ce_guard_check);
  m["model.ce_per_nqe_b1_ratio"] = m["shm.ring_enqdeq_ns.b1"] / CyclesToNs(costs.CePerNqe(1));
  m["model.ce_per_nqe_b64_ratio"] = m["shm.ring_enqdeq_ns.b64"] / CyclesToNs(costs.CePerNqe(64));
  m["model.guard_check_ratio"] =
      m["guard.validate_commit_ns"] / CyclesToNs(costs.ce_guard_check);
  return m;
}

}  // namespace nkbench
