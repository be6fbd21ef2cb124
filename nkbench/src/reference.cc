// Copyright (c) NetKernel reproduction authors.
// The host-speed reference for normalizing host-time metrics.
//
// On a shared machine the CPU time of the same work drifts by tens of
// percent within and between runs (co-tenants contend for caches, memory
// bandwidth and sibling hyperthreads). A reference workload timed in slices
// interleaved with the measured window slows down with it, so (window time /
// reference time) is steady where either alone is not.
//
// A reference step has the simulator's shape, one discrete-event hold step
// (binary heap of timed std::function events, one small heap allocation per
// event), plus a 512 B copy streaming through 16 MiB, for the memory traffic
// of the datapath. It is written here rather than taken from src/: a change
// to the code under test must never move the yardstick it is measured
// against.

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "nkbench.h"

namespace nkbench {
namespace {

class ReferenceLoop {
 public:
  ReferenceLoop() : src_(kBytes, 0x5a), dst_(kBytes) {
    heap_.reserve(kPending + 1);
    fire_ = [this] {
      rng_ ^= rng_ << 13;
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      Schedule(now_ + 1 + static_cast<int64_t>(rng_ % (2 * kPending)));
    };
    for (int i = 0; i < kPending; ++i) Schedule(i);
    Steps(4 * kPending);  // warm up
  }

  // Runs `n` steps; returns the CPU seconds they took.
  double Steps(int n) {
    const double t0 = ProcessCpuSeconds();
    for (int i = 0; i < n; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      Event ev = std::move(heap_.back());
      heap_.pop_back();
      now_ = ev.at;
      sum_ += *ev.token;
      ev.fn();
      std::memcpy(dst_.data() + pos_, src_.data() + pos_, kCopy);
      sum_ += dst_[pos_];
      pos_ = (pos_ + kCopy) % kBytes;
    }
    return sum_ != 0 ? ProcessCpuSeconds() - t0 : 0;  // keeps the reads observable
  }

 private:
  static constexpr int kPending = 1024;
  static constexpr size_t kBytes = 16 << 20;
  static constexpr size_t kCopy = 512;
  struct Event {
    int64_t at;
    uint64_t seq;
    std::shared_ptr<uint64_t> token;
    std::function<void()> fn;
  };
  static bool Later(const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
  void Schedule(int64_t at) {
    heap_.push_back(Event{at, seq_, std::make_shared<uint64_t>(seq_ + 1), fire_});
    ++seq_;
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  std::vector<Event> heap_;
  std::function<void()> fire_;
  std::vector<uint8_t> src_, dst_;
  size_t pos_ = 0;
  uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
  uint64_t seq_ = 0;
  uint64_t sum_ = 0;
  int64_t now_ = 0;
};

constexpr int kSlices = 16;
constexpr int kStepsPerSlice = 4000;

}  // namespace

void HostClock::Run(nk::sim::EventLoop& loop, nk::SimTime until) {
  static ReferenceLoop reference;
  const nk::SimTime from = loop.Now();
  for (int i = 1; i <= kSlices; ++i) {
    const double t0 = ProcessCpuSeconds();
    loop.Run(from + (until - from) * i / kSlices);
    loop_cpu_s += ProcessCpuSeconds() - t0;
    ref_cpu_s += reference.Steps(kStepsPerSlice);
    ref_steps += kStepsPerSlice;
  }
}

}  // namespace nkbench
