// Copyright (c) NetKernel reproduction authors.
// udp_kv: the memcached-style UDP KV server (apps::StartUdpKvServer, plain
// SendTo/RecvFrom) on a 1-vCPU NetKernel VM with a 1-core kernel NSM, driven
// open-loop from the Testbed peer by the benchmark's own client.
//
// The client draws each thread's whole Poisson arrival schedule up front and
// times every request from its due time, so a sender that falls behind shows
// up as lateness and as latency instead of as a lower offered rate
// (apps::UdpLoadGen starts each gap only after SendTo returns).

#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "nkbench.h"

namespace nkbench {
namespace {

using nk::SimTime;
using nk::kMillisecond;

constexpr uint16_t kKvPort = 11211;
constexpr uint32_t kValueSize = 100;
constexpr double kSetFraction = 0.1;
constexpr uint64_t kKeySpace = 10000;
constexpr int kClientThreads = 8;

// Nominal point: below the NetKernel knee (800 krps-1 Mrps), but loaded
// enough that most requests queue behind another, so the latency
// percentiles depend on the arrival sample and not only on service time.
constexpr double kNominalRps = 500e3;
constexpr SimTime kWarmup = 10 * kMillisecond;
constexpr SimTime kWindow = 100 * kMillisecond;
constexpr SimTime kDrain = 5 * kMillisecond;

// Capacity ladder: kLadderLo + i * kLadderStep for i in [0, kLadderSteps).
constexpr double kLadderLo = 300e3;
constexpr double kLadderStep = 25e3;
constexpr int kLadderSteps = 49;  // up to 1.5 Mrps
constexpr SimTime kLadderWindow = 40 * kMillisecond;
constexpr double kP99LimitUs = 200;
constexpr double kMaxFailRatio = 0.001;

uint8_t ValueByte(uint64_t key, uint32_t i) { return static_cast<uint8_t>(key * 131 + i * 7); }

void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

struct Arrival {
  SimTime due = 0;
  uint64_t key = 0;
  bool is_set = false;
};

struct ClientConfig {
  nk::netsim::IpAddr server_ip = 0;
  SimTime window_begin = 0;
  SimTime window_end = 0;
};

struct ClientStats {
  nk::Summary latency_us;  // requests due inside the window, from due time
  nk::Summary late_us;     // send start minus due time, same requests
  uint64_t scheduled = 0;  // arrivals in the schedule, whole run
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t send_errors = 0;
  uint64_t window_scheduled = 0;  // due inside the window
  uint64_t window_issued = 0;     // of those, issued (so far)
  uint64_t window_completed = 0;  // of those, answered (so far)
  uint64_t window_responses = 0;  // responses received inside the window
  uint64_t window_response_bytes = 0;
  uint64_t get_responses = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t unknown_responses = 0;  // id not outstanding: duplicate or forged
  uint64_t bad_responses = 0;      // wrong status, length or value bytes
};

struct Outstanding {
  SimTime due = 0;
  uint64_t key = 0;
  bool is_set = false;
  bool in_window = false;
};

struct ClientThread {
  std::vector<Arrival> schedule;
  std::unordered_map<uint64_t, Outstanding> outstanding;
};

bool InWindow(const ClientConfig& cfg, SimTime t) {
  return t >= cfg.window_begin && t < cfg.window_end;
}

nk::sim::Task<void> Receiver(nk::core::Vm* vm, nk::sim::CpuCore* core, int fd,
                             const ClientConfig* cfg, ClientStats* st, ClientThread* th) {
  nk::core::SocketApi& api = vm->api();
  nk::sim::EventLoop* loop = api.loop();
  std::vector<uint8_t> buf(2048);
  for (;;) {
    int64_t n = co_await api.RecvFrom(core, fd, buf.data(), buf.size(), nullptr, nullptr);
    if (n < 9) {
      ++st->bad_responses;
      continue;
    }
    auto it = th->outstanding.find(GetU64(buf.data() + 1));
    if (it == th->outstanding.end()) {
      ++st->unknown_responses;
      continue;
    }
    const Outstanding& o = it->second;
    const uint8_t status = buf[0];
    bool good;
    if (o.is_set) {
      good = status == 0 && n == 9;
    } else {
      ++st->get_responses;
      if (status == 0) {
        ++st->hits;
        good = n == 9 + kValueSize;
        for (uint32_t i = 0; good && i < kValueSize; ++i) {
          good = buf[9 + i] == ValueByte(o.key, i);
        }
      } else {
        ++st->misses;
        good = status == 1 && n == 9;
      }
    }
    if (!good) ++st->bad_responses;
    const SimTime now = loop->Now();
    ++st->completed;
    if (InWindow(*cfg, now)) {
      ++st->window_responses;
      st->window_response_bytes += static_cast<uint64_t>(n);
    }
    if (o.in_window) {
      ++st->window_completed;
      st->latency_us.Add(static_cast<double>(now - o.due) / nk::kMicrosecond);
    }
    th->outstanding.erase(it);
  }
}

nk::sim::Task<void> Sender(nk::core::Vm* vm, nk::sim::CpuCore* core, int thread,
                           const ClientConfig* cfg, ClientStats* st, ClientThread* th) {
  nk::core::SocketApi& api = vm->api();
  nk::sim::EventLoop* loop = api.loop();
  const int fd = co_await api.SocketDgram(core);
  NK_CHECK(fd >= 0);
  nk::sim::Spawn(Receiver(vm, core, fd, cfg, st, th));
  std::vector<uint8_t> req(nk::apps::kUdpKvHeader + kValueSize);
  uint64_t seq = 0;
  for (const Arrival& a : th->schedule) {
    if (loop->Now() < a.due) co_await nk::sim::Delay(loop, a.due - loop->Now());
    const bool in_window = InWindow(*cfg, a.due);
    if (in_window) {
      ++st->window_issued;
      st->late_us.Add(static_cast<double>(loop->Now() - a.due) / nk::kMicrosecond);
    }
    const uint64_t id = (static_cast<uint64_t>(thread) << 48) | ++seq;
    req[0] = a.is_set ? 1 : 0;
    PutU64(req.data() + 1, id);
    PutU64(req.data() + 9, a.key);
    uint64_t len = nk::apps::kUdpKvHeader;
    if (a.is_set) {
      for (uint32_t i = 0; i < kValueSize; ++i) req[len + i] = ValueByte(a.key, i);
      len += kValueSize;
    }
    th->outstanding[id] = Outstanding{a.due, a.key, a.is_set, in_window};
    ++st->issued;
    int64_t sent = co_await api.SendTo(core, fd, cfg->server_ip, kKvPort, req.data(), len);
    if (sent != static_cast<int64_t>(len)) {
      ++st->send_errors;
      th->outstanding.erase(id);
    }
  }
}

struct KvResult {
  Rep rep;
  double fail_ratio = 0;
  bool backlog_growing = false;
};

// `drained_checks`: also check the state a drain must restore, which an
// overloaded ladder step may not reach within kDrain.
KvResult RunKvAt(uint64_t seed, double rps, SimTime window, bool traced, bool drained_checks,
                 Checks* checks) {
  const double cpu0 = ProcessCpuSeconds();
  nk::core::Host::ResetIpAllocator();
  nk::bench::Testbed tb;
  nk::core::Vm* vm = tb.MakeNkVm(/*vm_cores=*/1, /*nsm_cores=*/1, nk::core::NsmKind::kKernel);
  nk::core::Vm* peer = tb.MakePeer(kClientThreads);

  nk::apps::UdpKvStats server;
  nk::apps::UdpKvServerConfig scfg;
  scfg.port = kKvPort;
  scfg.threads = 1;
  nk::apps::StartUdpKvServer(vm, scfg, &server);

  ClientConfig cfg;
  cfg.server_ip = vm->ip();
  const SimTime start = tb.loop().Now();
  cfg.window_begin = start + kWarmup;
  cfg.window_end = cfg.window_begin + window;
  ClientStats st;
  std::vector<ClientThread> threads(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    nk::Rng rng(seed * 1000003 + static_cast<uint64_t>(t) + 1);
    const double mean_gap_s = kClientThreads / rps;
    SimTime due = start;
    for (;;) {
      due += nk::FromSeconds(rng.NextExponential(mean_gap_s));
      if (due >= cfg.window_end) break;
      Arrival a;
      a.due = due;
      a.is_set = rng.NextBool(kSetFraction);
      a.key = rng.NextBounded(kKeySpace);
      threads[t].schedule.push_back(a);
      if (InWindow(cfg, due)) ++st.window_scheduled;
    }
    st.scheduled += threads[t].schedule.size();
  }
  for (int t = 0; t < kClientThreads; ++t) {
    nk::sim::Spawn(Sender(peer, peer->vcpu(t), t, &cfg, &st, &threads[t]));
  }
  auto backlog = [&] { return static_cast<double>(st.issued - st.completed - st.send_errors); };

  tb.loop().Run(cfg.window_begin);
  const Snap s0 = SnapTestbed(tb, vm, peer);
  if (traced) tb.host_a().SetTraceSampling(64);
  const double cpu1 = ProcessCpuSeconds();
  HostClock clock;
  clock.Run(tb.loop(), cfg.window_begin + window / 2);
  const double backlog_mid = backlog();
  clock.Run(tb.loop(), cfg.window_end);
  const double backlog_end = backlog();
  const uint64_t window_issued_by_end = st.window_issued;
  const Snap s1 = SnapTestbed(tb, vm, peer);
  tb.host_a().SetTraceSampling(0);

  KvResult r;
  Rep& rep = r.rep;
  rep.setup_s = cpu1 - cpu0;
  rep.window_cpu_s = clock.loop_cpu_s;
  rep.ref_ns_per_step = clock.RefNsPerStep();
  rep.ops = static_cast<double>(st.window_responses);
  DeriveLayers(s0, s1, rep.ops, window, &rep);
  if (traced) AddTraceStages(tb.host_a().tracer(), vm->id(), &rep);

  tb.loop().Run(cfg.window_end + kDrain);
  const Snap drained = SnapTestbed(tb, vm, peer);

  const double window_s = nk::ToSeconds(window);
  rep.attempted = st.window_scheduled;
  rep.failed = st.window_scheduled - st.window_completed;
  r.fail_ratio = static_cast<double>(rep.failed) / static_cast<double>(rep.attempted);
  r.backlog_growing = backlog_end > 2 * backlog_mid + 64;
  rep.modeled["krps"] = rep.ops / window_s / 1e3;
  rep.modeled["goodput_gbps"] = static_cast<double>(st.window_response_bytes) * 8 / window_s / 1e9;
  rep.modeled["ok_ratio"] = 1.0 - r.fail_ratio;
  AddLatency(st.latency_us, &rep);
  rep.layers["fail_ratio"] = r.fail_ratio;
  rep.layers["shm.chunks_in_use_after_drain"] = drained.at("x.pool_chunks_in_use");
  rep.layers["gen.scheduled"] = static_cast<double>(st.window_scheduled);
  rep.layers["gen.issued"] = static_cast<double>(window_issued_by_end);
  rep.layers["gen.late_p99_us"] = st.late_us.Percentile(99);

  const std::string at = " (udp_kv at " + std::to_string(static_cast<int>(rps / 1e3)) + " krps)";
  checks->Expect(st.unknown_responses == 0,
                 "KV response for a request id that is not outstanding (duplicate)" + at);
  checks->Expect(st.bad_responses == 0, "KV response with a wrong status, length or value" + at);
  checks->Expect(server.hits + server.misses == server.gets, "server hits + misses != GETs" + at);
  checks->Expect(server.gets + server.sets == server.requests,
                 "server GETs + SETs != requests" + at);
  checks->Expect(st.hits + st.misses == st.get_responses,
                 "client hits + misses != GET responses" + at);
  checks->Expect(st.issued == st.scheduled, "generator did not issue its whole schedule" + at);
  checks->Expect(st.completed <= server.requests && server.requests <= st.issued,
                 "responses > served requests or served requests > issued" + at);
  if (drained_checks) {
    checks->Expect(vm->pool()->allocs() == vm->pool()->frees(),
                   "VM pool allocs != frees after drain" + at);
  }
  checks->Expect(drained.at("guard.rejects") == 0, "nkguard rejected benign NQEs" + at);
  return r;
}

}  // namespace

Rep RunUdpKv(uint64_t seed, bool traced, Checks* checks) {
  return RunKvAt(seed, kNominalRps, kWindow, traced, /*drained_checks=*/true, checks).rep;
}

double UdpKvMaxKrps(uint64_t seed, bool traced, Checks* checks) {
  auto rate = [](int i) { return kLadderLo + kLadderStep * i; };
  auto passes = [&](int i) {
    KvResult r = RunKvAt(seed, rate(i), kLadderWindow, traced, /*drained_checks=*/false, checks);
    const bool ok = r.rep.modeled.at("p99_us") <= kP99LimitUs && r.fail_ratio <= kMaxFailRatio &&
                    !r.backlog_growing;
    std::printf("  ladder%s %6.0f krps: p50 %.1f us, p99 %.1f us, fail %.5f, growing %d -> %s\n",
                traced ? " (traced)" : "", rate(i) / 1e3, r.rep.modeled.at("p50_us"),
                r.rep.modeled.at("p99_us"), r.fail_ratio, r.backlog_growing ? 1 : 0,
                ok ? "pass" : "fail");
    return ok;
  };
  // Binary search for the highest passing step (latency and loss grow with
  // the offered rate, so the pass/fail boundary is a single crossing).
  if (!passes(0)) return 0;
  int lo = 0, hi = kLadderSteps;  // invariant: lo passes, hi fails or is past the ladder
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    (passes(mid) ? lo : hi) = mid;
  }
  return rate(lo) / 1e3;
}

}  // namespace nkbench
