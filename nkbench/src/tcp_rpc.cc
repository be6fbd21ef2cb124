// Copyright (c) NetKernel reproduction authors.
// tcp_rpc: ab-style short connections. 32 closed-loop clients on the Testbed
// peer each connect, send a 64 B request, read the 64 B response and close,
// against apps::StartEpollServer on a 2-vCPU NetKernel VM with a 2-core
// kernel NSM. Exercises connection control: CoreEngine conn-table inserts,
// ServiceLib accept/socket lifecycle, the handshake and the listener lock.

#include "nkbench.h"

namespace nkbench {
namespace {

using nk::SimTime;
using nk::kMillisecond;

constexpr int kClients = 32;
constexpr uint32_t kMsgSize = 64;
constexpr uint8_t kResponseByte = 0x5a;  // what apps::StartEpollServer answers with
constexpr uint16_t kPort = 8080;
constexpr SimTime kWarmup = 10 * kMillisecond;
constexpr SimTime kWindow = 60 * kMillisecond;
constexpr SimTime kDrain = 20 * kMillisecond;

struct RpcState {
  SimTime window_begin = 0;
  SimTime window_end = 0;
  bool stop = false;
  nk::Summary latency_us;  // requests completed inside the window
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t bad_payload = 0;
  uint64_t window_issued = 0;      // issued inside the window
  uint64_t window_failed = 0;      // of those, failed
  uint64_t window_completions = 0; // completed inside the window
  uint64_t window_bytes = 0;       // response bytes completed inside the window
  int active = 0;
};

bool InWindow(const RpcState& st, SimTime t) {
  return t >= st.window_begin && t < st.window_end;
}

nk::sim::Task<bool> OneRequest(nk::core::SocketApi& api, nk::sim::CpuCore* core,
                               nk::netsim::IpAddr server, RpcState* st) {
  std::vector<uint8_t> req(kMsgSize, 0xa5);
  std::vector<uint8_t> buf(4096);
  const int fd = co_await api.Socket(core);
  if (fd < 0) co_return false;
  bool ok = false;
  if (co_await api.Connect(core, fd, server, kPort) == 0 &&
      co_await api.Send(core, fd, req.data(), req.size()) == kMsgSize) {
    uint64_t got = 0;
    bool good = true;
    while (got < kMsgSize) {
      const int64_t n = co_await api.Recv(core, fd, buf.data(), buf.size());
      if (n <= 0) break;
      for (int64_t i = 0; i < n; ++i) good = good && buf[static_cast<size_t>(i)] == kResponseByte;
      got += static_cast<uint64_t>(n);
    }
    if (got == kMsgSize && !good) ++st->bad_payload;
    ok = got == kMsgSize && good;
  }
  co_await api.Close(core, fd);
  co_return ok;
}

nk::sim::Task<void> Client(nk::core::Vm* vm, nk::sim::CpuCore* core, nk::netsim::IpAddr server,
                           RpcState* st) {
  nk::core::SocketApi& api = vm->api();
  nk::sim::EventLoop* loop = api.loop();
  ++st->active;
  while (!st->stop) {
    const SimTime t0 = loop->Now();
    const bool issued_in_window = InWindow(*st, t0);
    ++st->issued;
    if (issued_in_window) ++st->window_issued;
    const bool ok = co_await OneRequest(api, core, server, st);
    const SimTime t1 = loop->Now();
    if (!ok) {
      ++st->errors;
      if (issued_in_window) ++st->window_failed;
      continue;
    }
    ++st->completed;
    if (InWindow(*st, t1)) {
      ++st->window_completions;
      st->window_bytes += kMsgSize;
      st->latency_us.Add(static_cast<double>(t1 - t0) / nk::kMicrosecond);
    }
  }
  --st->active;
}

}  // namespace

Rep RunTcpRpc(uint64_t seed, bool traced, Checks* checks) {
  const double cpu0 = ProcessCpuSeconds();
  nk::core::Host::ResetIpAllocator();
  nk::bench::Testbed tb;
  nk::core::Vm* vm = tb.MakeNkVm(/*vm_cores=*/2, /*nsm_cores=*/2, nk::core::NsmKind::kKernel);
  nk::core::Vm* peer = tb.MakePeer();

  nk::apps::ServerStats server;
  nk::apps::EpollServerConfig scfg;
  scfg.port = kPort;
  scfg.request_size = kMsgSize;
  scfg.response_size = kMsgSize;
  nk::apps::StartEpollServer(vm, scfg, &server);

  RpcState st;
  // The seed staggers client start times over the first 100 us, so each seed
  // gives a different interleaving of connection set-ups.
  nk::Rng rng(seed);
  const SimTime start = tb.loop().Now() + 10 * nk::kMicrosecond;
  st.window_begin = start + kWarmup;
  st.window_end = st.window_begin + kWindow;
  for (int c = 0; c < kClients; ++c) {
    const SimTime at = start + static_cast<SimTime>(rng.NextBounded(100 * nk::kMicrosecond));
    nk::sim::CpuCore* core = peer->vcpu(c % peer->num_vcpus());
    tb.loop().Schedule(at, [peer, core, server_ip = vm->ip(), s = &st] {
      nk::sim::Spawn(Client(peer, core, server_ip, s));
    });
  }

  tb.loop().Run(st.window_begin);
  const Snap s0 = SnapTestbed(tb, vm, peer);
  if (traced) tb.host_a().SetTraceSampling(64);
  const double cpu1 = ProcessCpuSeconds();
  HostClock clock;
  clock.Run(tb.loop(), st.window_end);
  const Snap s1 = SnapTestbed(tb, vm, peer);
  tb.host_a().SetTraceSampling(0);

  Rep rep;
  rep.setup_s = cpu1 - cpu0;
  rep.window_cpu_s = clock.loop_cpu_s;
  rep.ref_ns_per_step = clock.RefNsPerStep();
  rep.ops = static_cast<double>(st.window_completions);
  DeriveLayers(s0, s1, rep.ops, kWindow, &rep);
  if (traced) AddTraceStages(tb.host_a().tracer(), vm->id(), &rep);

  st.stop = true;
  tb.loop().Run(st.window_end + kDrain);

  const double window_s = nk::ToSeconds(kWindow);
  rep.attempted = st.window_issued;
  rep.failed = st.window_failed;
  const double fail_ratio =
      rep.attempted > 0 ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                        : 1.0;
  rep.modeled["krps"] = rep.ops / window_s / 1e3;
  rep.modeled["goodput_gbps"] = static_cast<double>(st.window_bytes) * 8 / window_s / 1e9;
  rep.modeled["ok_ratio"] = 1.0 - fail_ratio;
  AddLatency(st.latency_us, &rep);
  rep.layers["fail_ratio"] = fail_ratio;
  rep.layers["shm.chunks_in_use_after_drain"] =
      static_cast<double>(vm->pool()->chunks_in_use());
  rep.layers["gen.issued"] = static_cast<double>(st.window_issued);

  checks->Expect(rep.attempted > 0, "tcp_rpc issued no request in the window");
  checks->Expect(st.active == 0, "tcp_rpc requests still unfinished after the drain");
  checks->Expect(st.issued == st.completed + st.errors,
                 "tcp_rpc issued != completed + failed after the drain");
  checks->Expect(st.bad_payload == 0, "tcp_rpc response payload differs from the server's");
  checks->Expect(server.requests >= st.completed, "tcp_rpc completed more than the server served");
  checks->Expect(vm->pool()->allocs() == vm->pool()->frees(),
                 "VM pool allocs != frees after drain (tcp_rpc)");
  checks->Expect(s1.at("guard.rejects") == 0, "nkguard rejected benign NQEs (tcp_rpc)");
  return rep;
}

}  // namespace nkbench
