// Copyright (c) NetKernel reproduction authors.
// tcp_stream: four bulk TCP connections from a 1-vCPU NetKernel VM (1-core
// kernel NSM) to a sink on the Testbed peer, sending 64 KiB messages over
// the zero-copy loan surface (AcquireTxBuf/SendBuf). One NSM core makes the
// stack, not the 100G link, the bottleneck.
//
// Every message carries its connection and sequence number in its first
// 8 bytes and a per-connection pattern after that; the sink checks every
// byte, and times each message from SendBuf to its last byte at the sink.

#include <cstring>
#include <deque>

#include "nkbench.h"

namespace nkbench {
namespace {

using nk::SimTime;
using nk::kMillisecond;

constexpr int kConns = 4;
constexpr uint32_t kMsg = 64 * 1024;
constexpr uint16_t kPort = 9000;
constexpr SimTime kWarmup = 10 * kMillisecond;
constexpr SimTime kWindow = 80 * kMillisecond;
constexpr SimTime kDrain = 10 * kMillisecond;

uint64_t Header(int conn, uint64_t msg) { return (static_cast<uint64_t>(conn) << 48) | msg; }

struct Conn {
  std::vector<uint8_t> pattern;  // message body template
  std::deque<std::pair<uint64_t, SimTime>> inflight;  // (end offset, SendBuf time)
  uint64_t sent = 0;
  bool claimed = false;  // a sink connection identified itself as this one
};

struct StreamState {
  SimTime window_begin = 0;
  SimTime window_end = 0;
  bool stop = false;
  Conn conns[kConns];
  nk::Summary latency_us;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t window_bytes = 0;
  uint64_t window_submitted = 0;
  uint64_t send_errors = 0;
  uint64_t corrupt = 0;  // payload bytes or headers that do not match
  int senders_done = 0;
  int sinks_done = 0;
};

bool InWindow(const StreamState& st, SimTime t) {
  return t >= st.window_begin && t < st.window_end;
}

nk::sim::Task<void> Sender(nk::core::Vm* vm, nk::sim::CpuCore* core, int c,
                           nk::netsim::IpAddr dst, StreamState* st) {
  nk::core::SocketApi& api = vm->api();
  nk::sim::EventLoop* loop = api.loop();
  Conn& conn = st->conns[c];
  const int fd = co_await api.Socket(core);
  if (fd < 0 || co_await api.Connect(core, fd, dst, kPort) != 0) {
    ++st->send_errors;
    ++st->senders_done;
    co_return;
  }
  for (uint64_t m = 0; !st->stop; ++m) {
    nk::core::NkBuf loan;
    if (co_await api.AcquireTxBuf(core, fd, kMsg, &loan) != 0 || loan.capacity < kMsg) {
      ++st->send_errors;
      break;
    }
    loan.size = kMsg;
    std::memcpy(loan.data, conn.pattern.data(), kMsg);
    const uint64_t header = Header(c, m);
    std::memcpy(loan.data, &header, sizeof(header));
    conn.inflight.emplace_back(conn.sent + kMsg, loop->Now());
    if (InWindow(*st, loop->Now())) ++st->window_submitted;
    if (co_await api.SendBuf(core, fd, loan) != kMsg) {
      ++st->send_errors;
      break;
    }
    conn.sent += kMsg;
    st->bytes_sent += kMsg;
  }
  co_await api.Close(core, fd);
  ++st->senders_done;
}

// Checks bytes [off, off + n) of a connection's stream; `c` is -1 until the
// first header names the connection.
void VerifyRange(StreamState* st, const uint8_t* data, uint64_t off, uint64_t n, int* c,
                 uint8_t* first_header) {
  uint64_t i = 0;
  while (i < n) {
    const uint64_t o = off + i;
    const uint64_t w = o % kMsg;
    if (w < 8) {
      if (*c < 0) {
        first_header[w] = data[i];
        if (w == 7) {
          uint64_t h;
          std::memcpy(&h, first_header, sizeof(h));
          const int id = static_cast<int>(h >> 48);
          if (id < kConns && h == Header(id, 0) && !st->conns[id].claimed) {
            st->conns[id].claimed = true;
            *c = id;
          } else {
            ++st->corrupt;
            *c = kConns;  // unidentifiable: count every later byte range as corrupt
          }
        }
      } else {
        const uint64_t h = *c < kConns ? Header(*c, o / kMsg) : 0;
        if (*c >= kConns || data[i] != static_cast<uint8_t>(h >> (8 * w))) ++st->corrupt;
      }
      ++i;
      continue;
    }
    const uint64_t run = std::min<uint64_t>(n - i, kMsg - w);
    if (*c >= kConns || std::memcmp(data + i, st->conns[*c].pattern.data() + w, run) != 0) {
      ++st->corrupt;
    }
    i += run;
  }
}

nk::sim::Task<void> SinkConn(nk::core::Vm* vm, nk::sim::CpuCore* core, int fd,
                             StreamState* st) {
  nk::core::SocketApi& api = vm->api();
  nk::sim::EventLoop* loop = api.loop();
  std::vector<uint8_t> buf(kMsg);
  uint64_t off = 0;
  int c = -1;
  uint8_t first_header[8] = {};
  for (;;) {
    const int64_t n = co_await api.Recv(core, fd, buf.data(), buf.size());
    if (n <= 0) break;
    VerifyRange(st, buf.data(), off, static_cast<uint64_t>(n), &c, first_header);
    off += static_cast<uint64_t>(n);
    st->bytes_received += static_cast<uint64_t>(n);
    const SimTime now = loop->Now();
    if (InWindow(*st, now)) st->window_bytes += static_cast<uint64_t>(n);
    if (c < 0 || c >= kConns) continue;
    auto& inflight = st->conns[c].inflight;
    while (!inflight.empty() && inflight.front().first <= off) {
      if (InWindow(*st, now)) {
        st->latency_us.Add(static_cast<double>(now - inflight.front().second) /
                           nk::kMicrosecond);
      }
      inflight.pop_front();
    }
  }
  co_await api.Close(core, fd);
  ++st->sinks_done;
}

nk::sim::Task<void> SinkAcceptor(nk::core::Vm* vm, StreamState* st) {
  nk::core::SocketApi& api = vm->api();
  nk::sim::CpuCore* core = vm->vcpu(0);
  const int lfd = co_await api.Socket(core);
  NK_CHECK(lfd >= 0);
  NK_CHECK(co_await api.Bind(core, lfd, 0, kPort) == 0);
  NK_CHECK(co_await api.Listen(core, lfd, 64, /*reuseport=*/false) == 0);
  for (int i = 0; i < kConns; ++i) {
    const int fd = co_await api.Accept(core, lfd);
    if (fd < 0) co_return;
    nk::sim::Spawn(SinkConn(vm, vm->vcpu(i % vm->num_vcpus()), fd, st));
  }
}

}  // namespace

Rep RunTcpStream(uint64_t seed, bool traced, Checks* checks) {
  const double cpu0 = ProcessCpuSeconds();
  nk::core::Host::ResetIpAllocator();
  nk::bench::Testbed tb;
  nk::core::Vm* vm = tb.MakeNkVm(/*vm_cores=*/1, /*nsm_cores=*/1, nk::core::NsmKind::kKernel);
  nk::core::Vm* peer = tb.MakePeer();

  StreamState st;
  nk::Rng rng(seed);
  for (Conn& conn : st.conns) {
    conn.pattern.resize(kMsg);
    for (uint8_t& b : conn.pattern) b = static_cast<uint8_t>(rng.Next());
  }
  st.window_begin = tb.loop().Now() + kWarmup;
  st.window_end = st.window_begin + kWindow;
  nk::sim::Spawn(SinkAcceptor(peer, &st));
  // The seed staggers connection starts over the first 100 us.
  for (int c = 0; c < kConns; ++c) {
    const SimTime at = tb.loop().Now() + static_cast<SimTime>(rng.NextBounded(100 * nk::kMicrosecond));
    tb.loop().Schedule(at, [vm, c, dst = peer->ip(), s = &st] {
      nk::sim::Spawn(Sender(vm, vm->vcpu(0), c, dst, s));
    });
  }

  tb.loop().Run(st.window_begin);
  const Snap s0 = SnapTestbed(tb, vm, peer);
  if (traced) tb.host_a().SetTraceSampling(64);
  const double cpu1 = ProcessCpuSeconds();
  HostClock clock;
  clock.Run(tb.loop(), st.window_end);
  const Snap s1 = SnapTestbed(tb, vm, peer);
  const uint64_t received_at_end = st.bytes_received;
  tb.host_a().SetTraceSampling(0);

  Rep rep;
  rep.setup_s = cpu1 - cpu0;
  rep.window_cpu_s = clock.loop_cpu_s;
  rep.ref_ns_per_step = clock.RefNsPerStep();
  rep.ops = static_cast<double>(st.window_bytes) / kMsg;
  DeriveLayers(s0, s1, rep.ops, kWindow, &rep);
  if (traced) AddTraceStages(tb.host_a().tracer(), vm->id(), &rep);

  st.stop = true;
  tb.loop().Run(st.window_end + kDrain);

  const double window_s = nk::ToSeconds(kWindow);
  rep.attempted = st.window_submitted;
  rep.failed = std::min(st.send_errors, rep.attempted);
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
  rep.layers["gen.issued"] = static_cast<double>(st.window_submitted);

  const double stack_sent = SumMatching(s1, "nsm", ".tcp.bytes_sent");
  checks->Expect(rep.attempted > 0, "tcp_stream submitted no message in the window");
  checks->Expect(st.send_errors == 0, "tcp_stream send error");
  checks->Expect(st.corrupt == 0, "tcp_stream payload corrupted, reordered or misattributed");
  checks->Expect(static_cast<double>(received_at_end) <= stack_sent,
                 "sink received more bytes than the NSM stack sent");
  checks->Expect(st.senders_done == kConns && st.sinks_done == kConns,
                 "tcp_stream connections did not close within the drain");
  checks->Expect(st.bytes_received == st.bytes_sent,
                 "sink bytes != bytes the senders handed to SendBuf after the drain");
  checks->Expect(vm->guestlib()->zc_sends() == vm->guestlib()->zc_completions(),
                 "tcp_stream zero-copy sends != completions after drain");
  checks->Expect(vm->pool()->allocs() == vm->pool()->frees(),
                 "VM pool allocs != frees after drain (tcp_stream)");
  checks->Expect(s1.at("guard.rejects") == 0, "nkguard rejected benign NQEs (tcp_stream)");
  return rep;
}

}  // namespace nkbench
