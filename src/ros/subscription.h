// Subscriber-side transport for one topic: for every publisher endpoint the
// master reports, the subscription negotiates a transport at connect time —
// a direct in-process link when the publisher's Publication lives in this
// process (intra_process.h), loopback TCPROS otherwise, optionally carrying
// the shm (DESIGN.md §12) or multicast (§14) tier.
//
// Subscription is compiled once (subscription.cpp) for every message type.
// Only the last receive step depends on the type (paper §4): an SFM frame
// lands in a message arena and is reinterpreted in place, a regular frame
// lands in a reused staging buffer and is deserialized.  That step is the
// RxCodec below; NodeHandle::subscribe<M> builds it together with a
// callback adapter that casts the type-erased message back to
// shared_ptr<const M>.  Every wire path — inline TCP frames, shm
// descriptors, multicast completions and repairs — ends in one Finish
// choke point that decodes, counts and dispatches (DESIGN.md §13.5).  The
// in-process path skips the wire: delivery is a queue push of the
// publisher's shared_ptr.  The bag recorder (bag.h) is a client of the
// same path with an opaque codec.
//
// A SubscribeOptions::link configuration routes delivery through a SimLink
// shaper — the stand-in for the paper's two-machine 10 GbE testbed (§5.2)
// — and therefore forces TCP.  Shaping is paced on the loop: the link's
// reads pause and a timer delivers the frame when its wire time has
// elapsed, so unread bytes exert real TCP backpressure on the publisher.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/concurrent_queue.h"
#include "common/status.h"
#include "net/sim_link.h"
#include "ros/callback_queue.h"
#include "ros/intra_process.h"
#include "ros/master.h"
#include "ros/message_traits.h"

namespace ros {

class Publication;

struct SubscribeOptions {
  /// Incoming message queue depth; overflow drops the oldest (roscpp).
  size_t queue_size = 10;
  /// Simulated link applied to this subscription's deliveries.  A shaped
  /// link models a remote machine, so it forces the TCP transport.
  rsf::net::LinkConfig link{};
  /// Run the callback on the receive thread instead of the callback queue.
  bool inline_dispatch = false;
  /// Allow the in-process transport when the publisher is co-located.
  /// Disable to force TCPROS (benchmark baselines, wire-level tests).
  bool allow_intra_process = true;
  /// Allow the shared-memory tier for same-host SFM publishers (negotiated
  /// in the handshake; requires RSF_TRANSPORT_SHM=1 on both sides).
  /// Disable to pin this subscription to inline TCP frames.
  bool allow_shm = true;
  /// Allow the UDP-multicast tier for same-host publishers (negotiated in
  /// the handshake; requires RSF_TRANSPORT_MCAST=1 on both sides, and the
  /// publisher only grants it above its fan-out threshold).  Disable to
  /// pin this subscription to inline TCP frames.
  bool allow_mcast = true;
};

/// One frame whose payload has landed, as a codec's decode step sees it.
/// `type` / `md5sum` are what the publisher's handshake reply announced.
struct RxFrame {
  const uint8_t* data;
  uint32_t length;
  const std::string& type;
  const std::string& md5sum;
};

/// The typed half of a subscription's receive path: the only facts about
/// the message type the compiled-once wire code needs.  SFM codecs need no
/// decode call — the landed arena (or mapped shm block) is adopted by the
/// message manager and the record itself is the message.
struct RxCodec {
  /// Handshake "type" and the manager's record tag; static storage.
  const char* datatype = "*";
  bool serialization_free = false;
  /// SFM: the smallest acceptable payload (the skeleton) and the
  /// generated default arena size.
  size_t skeleton_size = 0;
  size_t arena_capacity = 0;
  /// Regular and opaque codecs: landed bytes → message.  The frame stays
  /// valid through an inline dispatch of the result, and no longer.
  rsf::Result<std::shared_ptr<const void>> (*decode)(const RxFrame& frame) =
      nullptr;
};

template <Message M>
RxCodec MakeRxCodec() {
  RxCodec codec;
  codec.datatype = M::DataType();
  if constexpr (Serializer<M>::kSerializationFree) {
    codec.serialization_free = true;
    codec.skeleton_size = sizeof(M);
    codec.arena_capacity = M::kArenaCapacity;
  } else {
    codec.decode =
        [](const RxFrame& frame) -> rsf::Result<std::shared_ptr<const void>> {
      auto msg = Serializer<M>::FromWire(frame.data, frame.length);
      if (!msg.ok()) return msg.status();
      return std::shared_ptr<const void>(*std::move(msg));
    };
  }
  return codec;
}

class Subscription final : public std::enable_shared_from_this<Subscription> {
 public:
  using MessagePtr = std::shared_ptr<const void>;
  /// Receives the decoded message by value, so a typed adapter can move it
  /// into its shared_ptr<const M> without touching the reference count.
  using Callback = std::function<void(MessagePtr)>;

  /// Registers with the master and starts connecting to publishers.
  /// `transport_md5` is the negotiated checksum (the SFM variant is marked,
  /// so a serialization-free publisher can never feed a regular subscriber).
  /// `queue` may be null for an inline_dispatch subscription.
  static rsf::Result<std::shared_ptr<Subscription>> Create(
      const std::string& topic, const std::string& transport_md5,
      const std::string& callerid, const SubscribeOptions& options,
      const RxCodec& codec, Callback callback,
      std::shared_ptr<CallbackQueue> queue);

  ~Subscription();
  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

  /// Unregisters and tears every link down synchronously; idempotent.
  void Shutdown();

  [[nodiscard]] const std::string& topic() const { return topic_; }
  [[nodiscard]] uint64_t ReceivedCount() const {
    return received_.load(std::memory_order_relaxed);
  }
  /// Queue-overflow evictions plus frames that failed to decode.
  [[nodiscard]] uint64_t DroppedCount() const {
    return pending_.DroppedCount() +
           malformed_.load(std::memory_order_relaxed);
  }
  /// In-process deliveries received on the zero-copy tier (aliased message).
  [[nodiscard]] uint64_t IntraZeroCopyCount() const {
    return intra_zero_copy_.load(std::memory_order_relaxed);
  }
  /// In-process deliveries received on the whole-copy tier (cloned message).
  [[nodiscard]] uint64_t IntraWholeCopyCount() const {
    return intra_whole_copy_.load(std::memory_order_relaxed);
  }
  /// Cross-process deliveries received through the shm tier (descriptor
  /// mapped and read in place — zero payload copies).
  [[nodiscard]] uint64_t ShmZeroCopyCount() const {
    return shm_zero_copy_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] size_t NumPublishers() const;

 private:
  struct RxDest;
  struct WireLink;
  class IntraLink;
  using WirePtr = std::shared_ptr<WireLink>;
  using IntraEntry =
      std::pair<std::shared_ptr<IntraLinkBase>, std::weak_ptr<Publication>>;

  Subscription(const std::string& topic, const std::string& transport_md5,
               const std::string& callerid, const SubscribeOptions& options,
               const RxCodec& codec, Callback callback,
               std::shared_ptr<CallbackQueue> queue);

  [[nodiscard]] bool ShapedLink() const noexcept {
    return options_.link.bandwidth_bps > 0 ||
           options_.link.propagation_nanos > 0;
  }

  /// Master-notify thread; never blocks.  Links in-process or starts a
  /// nonblocking TCP dial whose connect + handshake finish on the loop.
  void OnPublisher(const TopicEndpoint& endpoint);
  void DialWire(const TopicEndpoint& endpoint, bool want_shm,
                bool want_mcast);

  // ---- loop-thread-only wire receive ----
  void OnFrame(const WirePtr& wl, uint32_t raw);
  /// The choke point every wire path ends in: decode the landed frame,
  /// count it, apply link shaping, dispatch.  A malformed frame is logged
  /// and counted as a drop.
  void Finish(const WirePtr& wl, RxDest& dest, uint32_t length);
  rsf::Result<MessagePtr> Decode(const RxFrame& frame, RxDest& dest);
  void OnShmDescriptor(const WirePtr& wl, uint32_t length);
  void ShmLeaveTier(const WirePtr& wl, const char* why);
  void McastJoin(const WirePtr& wl);
  void OnMcastReadable(const WirePtr& wl);
  void OnMcastRepair(const WirePtr& wl, uint32_t length);
  void McastLeaveTier(const WirePtr& wl, const char* why);
  /// Runs on the link's loop thread (on_closed): the link closed itself.
  void RemoveWireLink(const WirePtr& wl);

  /// In-process delivery on the publisher's thread.  False once shut down
  /// (the publication culls the link).
  bool DeliverIntra(const MessagePtr& msg, IntraTier tier);
  void Dispatch(MessagePtr msg);

  const std::string topic_;
  const std::string transport_md5_;
  const std::string callerid_;
  const SubscribeOptions options_;
  const RxCodec codec_;
  const Callback callback_;
  const std::shared_ptr<CallbackQueue> queue_;

  rsf::net::SimLink shaper_;
  rsf::ConcurrentQueue<MessagePtr> pending_;
  uint64_t master_id_ = 0;
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> received_{0};
  std::atomic<uint64_t> malformed_{0};
  std::atomic<uint64_t> intra_zero_copy_{0};
  std::atomic<uint64_t> intra_whole_copy_{0};
  std::atomic<uint64_t> shm_zero_copy_{0};

  mutable std::mutex links_mutex_;
  std::vector<WirePtr> wire_links_;
  std::vector<IntraEntry> intra_links_;
};

}  // namespace ros
