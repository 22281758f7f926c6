// The control block the generator shares with its subscriber process, and
// the per-process counter snapshot both sides take at phase boundaries.
//
// The block lives in a memfd the generator creates and the child inherits
// across exec (nothing is written to the filesystem).  The child writes one
// delivery stamp per (topic, seq) and per-topic counters; the generator
// reads them to compute latency, loss and its closed-loop window.  Commands
// travel over a socketpair, so neither side polls while idle.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "payload.h"

namespace perfbench {

/// Per-process counters, taken by each process from its own view of the
/// middleware's public counters.  Differences between two snapshots give a
/// phase's per-layer work.
struct Counters {
  uint64_t cpu_us = 0;  // user + sys, all threads
  uint64_t threads = 0;
  uint64_t hwm_kb = 0;  // VmHWM: peak resident set since exec
  // net: GlobalIoCounters()
  uint64_t syscalls = 0;
  uint64_t epoll_waits = 0;
  uint64_t sendmsg_calls = 0;
  uint64_t recv_calls = 0;
  uint64_t zerocopy_bytes = 0;
  // publish path (ros::shim)
  uint64_t serialize_copies = 0;
  uint64_t frame_builds = 0;
  uint64_t descriptor_builds = 0;
  uint64_t shm_zero_copy = 0;
  uint64_t shm_fallback = 0;
  uint64_t pin_evictions = 0;
  // receive path (ros::shim)
  uint64_t arena_direct = 0;
  uint64_t deserialize_copies = 0;
  uint64_t scratch_allocs = 0;
  // sfm + shm pool
  uint64_t expansions = 0;
  uint64_t fence_rejections = 0;
  // PublicationStats / Subscriber counters, summed over topics
  uint64_t enqueued = 0;
  uint64_t pub_dropped = 0;
  uint64_t intra_delivered = 0;
  uint64_t intra_zero_copy = 0;
  uint64_t sub_dropped = 0;
};

struct TopicCounters {
  std::atomic<uint64_t> verified{0};  // deliveries that passed verification
  std::atomic<uint64_t> failed{0};    // payload or sequence mismatches
  std::atomic<uint64_t> bytes{0};     // verified payload bytes
};

/// One delivery stamp.  Slots are reused modulo the capacity, so a slot
/// names the seq it holds; the generator only trusts a matching one.
struct Stamp {
  std::atomic<uint64_t> seq_plus_one{0};
  std::atomic<uint64_t> entry_ns{0};  // callback entry, CLOCK_MONOTONIC
};

enum Snapshot : uint32_t {
  kSnapOpenBegin,
  kSnapOpenEnd,
  kNumSnapshots,
};

struct ControlHeader {
  uint64_t capacity = 0;  // stamp slots per topic
  std::atomic<uint32_t> trace{0};
  TopicCounters topics[kMaxTopics];
  Counters snapshots[kNumSnapshots];
};

/// View over the mapped block: the header followed by one ring of
/// callback-entry stamps per topic, indexed by seq modulo the capacity.
class Control {
 public:
  static size_t Bytes(size_t capacity) {
    return sizeof(ControlHeader) + kMaxTopics * capacity * sizeof(Stamp);
  }

  Control() = default;
  explicit Control(void* base) : base_(static_cast<uint8_t*>(base)) {}

  ControlHeader& header() const {
    return *reinterpret_cast<ControlHeader*>(base_);
  }
  Stamp& stamp(uint32_t topic, uint64_t seq) const {
    const uint64_t capacity = header().capacity;
    return reinterpret_cast<Stamp*>(base_ + sizeof(ControlHeader))
        [topic * capacity + seq % capacity];
  }

  void Record(uint32_t topic, uint64_t seq, uint64_t entry_ns) const {
    Stamp& slot = stamp(topic, seq);
    slot.entry_ns.store(entry_ns, std::memory_order_relaxed);
    slot.seq_plus_one.store(seq + 1, std::memory_order_release);
  }
  /// Callback-entry time of `seq`, or 0 if it has not been delivered.
  uint64_t EntryOf(uint32_t topic, uint64_t seq) const {
    const Stamp& slot = stamp(topic, seq);
    if (slot.seq_plus_one.load(std::memory_order_acquire) != seq + 1) return 0;
    return slot.entry_ns.load(std::memory_order_relaxed);
  }

 private:
  uint8_t* base_ = nullptr;
};

static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "stamps are shared across processes; they must be lock-free");

}  // namespace perfbench
