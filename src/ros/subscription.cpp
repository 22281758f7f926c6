#include "ros/subscription.h"

#include <unistd.h>

#include <algorithm>
#include <unordered_map>

#include "common/clock.h"
#include "common/log.h"
#include "net/framing.h"
#include "net/link.h"
#include "net/poller.h"
#include "ros/connection_header.h"
#include "ros/mcast_transport.h"
#include "ros/publication.h"
#include "ros/shm_transport.h"
#include "ros/transport_lane.h"
#include "sfm/message_manager.h"

namespace ros {

/// Where one frame's payload lands.  Regular messages stage into
/// `staging`, which a TCP link reuses across frames (it grows to the
/// largest frame seen, then stays allocation-free); SFM payloads land
/// straight in a pooled arena block the message manager adopts (exactly
/// one kernel→arena copy); on the shm path the mapped block itself is the
/// destination.
struct Subscription::RxDest {
  std::vector<uint8_t> staging;
  sfm::PooledBlock block;
  size_t capacity = 0;
  std::shared_ptr<uint8_t[]> shared;
  uint8_t* data = nullptr;

  uint8_t* Land(const RxCodec& codec, uint32_t length) {
    if (codec.serialization_free) {
      // Pooled + default-initialized: arenas are megabytes (sized for the
      // largest message of the type), so recycling keeps pages warm and a
      // value-initializing allocation would memset the full capacity.
      capacity = std::max<size_t>(
          sfm::ArenaCapacityFor(codec.datatype, codec.arena_capacity),
          length);
      block = sfm::AcquireArenaBlock(capacity);
      shim::arena_direct.fetch_add(1, std::memory_order_relaxed);
      return data = block.get();
    }
    const size_t needed = length == 0 ? 1 : length;
    if (staging.size() < needed) {
      staging.resize(needed);
      shim::scratch_allocations.fetch_add(1, std::memory_order_relaxed);
    } else {
      shim::scratch_reuses.fetch_add(1, std::memory_order_relaxed);
    }
    return data = staging.data();
  }
};

/// One publisher connection: the Link that owns the socket plus the
/// loop-confined receive state.
struct Subscription::WireLink {
  /// Set (under links_mutex_) right after Dial returns; the owner-side
  /// handle Shutdown closes.
  std::shared_ptr<rsf::net::Link> link;
  /// Loop-confined copy, set by on_established — the receive path uses
  /// this for pause/resume and control frames without links_mutex_.
  std::shared_ptr<rsf::net::Link> loop_link;
  /// True once on_closed ran; guards the add-after-close race (a dial
  /// can fail before DialWire files the link).  Under links_mutex_.
  bool removed = false;
  /// What the publisher's handshake reply announced.
  std::string type = "*";
  std::string md5sum = "*";
  /// Destination of the inline frame being read.
  RxDest dest;
  /// Shm-tier receive state: the negotiated peer slot, the publisher's
  /// segment namespace, and this link's own mappings.  Mappings are
  /// per-link on purpose — two subscriptions in one process then register
  /// adopted arenas at distinct addresses, so the manager's address-keyed
  /// index never collides.
  ShmSubState shm;
  /// Mcast-tier receive state.  `mcast.loop` is set BEFORE the dial (so
  /// Shutdown can reach the loop without racing loop-thread writes).
  McastSubState mcast;
  /// Per-seq destinations of in-flight multicast frames: datagram chunks
  /// land straight in them (the TCP path's one-copy contract).  Several
  /// frames reassemble concurrently under loss, hence a map.
  std::unordered_map<uint64_t, RxDest> mcast_rx;

  /// Loop-thread-only: one subscriber→publisher control frame (shm
  /// ack/disable, mcast nack/ack/leave) on the TCP link.
  void SendControl(std::shared_ptr<const uint8_t[]> payload, uint32_t tag,
                   uint32_t size) {
    if (loop_link == nullptr) return;
    (void)loop_link->EnqueueFrame(std::move(payload),
                                  rsf::net::TaggedLength(tag, size));
    loop_link->FlushOnLoop();
  }

  /// Loop-thread-only, idempotent.
  void McastTeardown() {
    mcast.Teardown();
    mcast_rx.clear();
  }
};

/// The subscriber end of one in-process link.  Holds the subscription
/// weakly: a dead subscriber makes Deliver return false, and the
/// publication culls the link.
class Subscription::IntraLink final : public IntraLinkBase {
 public:
  IntraLink(std::weak_ptr<Subscription> subscription, std::string md5,
            std::string callerid)
      : subscription_(std::move(subscription)),
        md5_(std::move(md5)),
        callerid_(std::move(callerid)) {}

  // The message is of the subscriber's type: AddIntraLink only accepted
  // this link after matching the negotiated transport checksum.
  bool Deliver(const std::shared_ptr<const void>& message,
               IntraTier tier) override {
    auto self = subscription_.lock();
    return self != nullptr && self->DeliverIntra(message, tier);
  }

  [[nodiscard]] bool alive() const noexcept override {
    auto self = subscription_.lock();
    return self != nullptr &&
           !self->shutdown_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& transport_md5() const noexcept override {
    return md5_;
  }
  [[nodiscard]] const std::string& callerid() const noexcept override {
    return callerid_;
  }

 private:
  std::weak_ptr<Subscription> subscription_;
  const std::string md5_;
  const std::string callerid_;
};

rsf::Result<std::shared_ptr<Subscription>> Subscription::Create(
    const std::string& topic, const std::string& transport_md5,
    const std::string& callerid, const SubscribeOptions& options,
    const RxCodec& codec, Callback callback,
    std::shared_ptr<CallbackQueue> queue) {
  auto subscription = std::shared_ptr<Subscription>(
      new Subscription(topic, transport_md5, callerid, options, codec,
                       std::move(callback), std::move(queue)));
  std::weak_ptr<Subscription> weak = subscription;
  auto id = master().RegisterSubscriber(
      topic, codec.datatype, transport_md5,
      [weak](const TopicEndpoint& endpoint) {
        if (auto self = weak.lock()) self->OnPublisher(endpoint);
      });
  if (!id.ok()) return id.status();
  subscription->master_id_ = *id;
  return subscription;
}

Subscription::Subscription(const std::string& topic,
                           const std::string& transport_md5,
                           const std::string& callerid,
                           const SubscribeOptions& options,
                           const RxCodec& codec, Callback callback,
                           std::shared_ptr<CallbackQueue> queue)
    : topic_(topic),
      transport_md5_(transport_md5),
      callerid_(callerid),
      options_(options),
      codec_(codec),
      callback_(std::move(callback)),
      queue_(std::move(queue)),
      shaper_(options.link),
      pending_(options.queue_size == 0 ? 1 : options.queue_size,
               rsf::QueueFullPolicy::kDropOldest) {}

Subscription::~Subscription() { Shutdown(); }

void Subscription::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;
  master().UnregisterSubscriber(topic_, master_id_);
  pending_.Shutdown();
  std::vector<IntraEntry> intra;
  std::vector<WirePtr> wire;
  {
    std::lock_guard<std::mutex> lock(links_mutex_);
    intra.swap(intra_links_);
    wire.swap(wire_links_);
  }
  // Links tear down ON their loop thread and synchronously: after
  // CloseSync returns, no callback for that link is running or will ever
  // run, which is what makes the destructor safe.  Done outside
  // links_mutex_ — a concurrent RemoveWireLink on the loop thread takes
  // that mutex, and holding it here would deadlock the RunSync
  // handshake.  (When Shutdown itself runs on a loop thread — the last
  // reference died inside a callback — RunSync executes inline.)
  for (const auto& wl : wire) {
    wl->link->CloseSync();
    // CloseSync is an owner-initiated close, so on_closed (and with it
    // RemoveWireLink's teardown) never fires — the mcast fd has its own
    // loop registration and must be torn down explicitly.
    if (wl->mcast.loop != nullptr) {
      wl->mcast.loop->RunSync([&wl] { wl->McastTeardown(); });
    }
  }
  // Unhook from publications outside links_mutex_: RemoveIntraLink takes
  // the publication's intra lock, and ours must never nest around it.
  for (const auto& [link, publication] : intra) {
    if (auto pub = publication.lock()) pub->RemoveIntraLink(link.get());
  }
}

size_t Subscription::NumPublishers() const {
  std::lock_guard<std::mutex> lock(links_mutex_);
  size_t alive = 0;
  for (const auto& wl : wire_links_) {
    if (wl->link->established()) ++alive;
  }
  for (const auto& [link, publication] : intra_links_) {
    if (!publication.expired()) ++alive;
  }
  return alive;
}

void Subscription::OnPublisher(const TopicEndpoint& endpoint) {
  if (shutdown_.load(std::memory_order_acquire)) return;

  // Transport negotiation, in one testable table (DESIGN.md §13): the
  // LanePolicy rows decide in-process vs TCP vs TCP-with-a-tier-request;
  // this function only carries out the plan.
  auto publication = intra_registry().Find(topic_, endpoint.port);
  LanePolicy::SubscriberSide side;
  side.co_located = publication != nullptr;
  side.allow_intra = options_.allow_intra_process;
  side.shaped = ShapedLink();
  side.serialization_free = codec_.serialization_free;
  side.allow_shm = options_.allow_shm;
  side.shm_enabled = sfm::shm::Enabled();
  side.loopback = endpoint.host == "127.0.0.1" || endpoint.host == "localhost";
  side.allow_mcast = options_.allow_mcast;
  side.mcast_enabled = McastEnabled();
  const LanePolicy::Plan plan = LanePolicy::PlanSubscriber(side);
  if (plan != LanePolicy::Plan::kIntra) {
    DialWire(endpoint, plan == LanePolicy::Plan::kTcpRequestShm,
             plan == LanePolicy::Plan::kTcpRequestMcast);
    return;
  }

  // Never fall back to TCP for a co-located publication: a rejection here
  // (checksum mismatch) would be rejected by the TCPROS handshake too.
  auto link =
      std::make_shared<IntraLink>(weak_from_this(), transport_md5_, callerid_);
  const auto status = publication->AddIntraLink(link);
  if (!status.ok()) {
    RSF_WARN("publisher rejected in-process subscription to %s: %s",
             topic_.c_str(), status.ToString().c_str());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(links_mutex_);
    if (shutdown_.load(std::memory_order_acquire)) {
      publication->RemoveIntraLink(link.get());
      return;
    }
    intra_links_.emplace_back(link, publication);
  }
  // Filed on our side: go live.  Outside links_mutex_ — the publication
  // takes its own lock and must never nest inside ours.  If our Shutdown
  // raced in between, it already called RemoveIntraLink, and this
  // activation no-ops.
  publication->ActivateIntraLink(link.get());
}

void Subscription::DialWire(const TopicEndpoint& endpoint, bool want_shm,
                            bool want_mcast) {
  auto wl = std::make_shared<WireLink>();
  std::weak_ptr<Subscription> weak = weak_from_this();
  rsf::net::EventLoop* loop = rsf::net::Reactor::Get().NextLoop();
  if (want_mcast) wl->mcast.loop = loop;

  rsf::net::Link::Callbacks callbacks;
  // Captured by value: the request must be buildable even if the
  // subscription died between dial and connect completion.
  callbacks.make_handshake_request = [topic = topic_,
                                      datatype = std::string(codec_.datatype),
                                      md5 = transport_md5_,
                                      callerid = callerid_, want_shm,
                                      want_mcast] {
    auto header = MakeSubscriberHeader(topic, datatype, md5, callerid);
    if (want_shm) AddShmRequestFields(&header, ::getpid());
    if (want_mcast) AddMcastRequestFields(&header);
    return EncodeConnectionHeader(header);
  };
  // Loop-thread writes, before any frame can arrive.  A malformed tier
  // grant degrades to plain TCP.
  callbacks.on_handshake_reply = [topic = topic_, wl](const uint8_t* data,
                                                      uint32_t length) {
    auto header = DecodeConnectionHeader(data, length);
    if (!header.ok()) return false;
    if (const auto it = header->find("error"); it != header->end()) {
      RSF_WARN("publisher rejected subscription to %s: %s", topic.c_str(),
               it->second.c_str());
      return false;
    }
    if (const auto it = header->find("type"); it != header->end()) {
      wl->type = it->second;
    }
    if (const auto it = header->find("md5sum"); it != header->end()) {
      wl->md5sum = it->second;
    }
    // Shm grant: the publisher's namespace and our refcount slot.
    const ShmGrant grant = ParseShmGrant(*header, sfm::shm::kMaxPeers);
    if (grant.granted) {
      wl->shm.negotiated = true;
      wl->shm.ns = grant.ns;
      wl->shm.slot = grant.slot;
    }
    // Mcast grant: the group to join (at establishment, same loop thread)
    // and the first seq of our stream.
    const McastGrant mcast_grant = ParseMcastGrant(*header);
    if (mcast_grant.granted && wl->mcast.loop != nullptr) {
      wl->mcast.negotiated = true;
      wl->mcast.group = mcast_grant.group;
      wl->mcast.port = mcast_grant.port;
      wl->mcast.base_seq = mcast_grant.first_seq;
    }
    return true;
  };
  // One allocator call per frame, routed by the prefix tag: descriptors and
  // repairs stage in small control buffers, data frames land where the
  // codec says.  Unknown tags close the link (null allocation).
  callbacks.alloc = [wl, codec = codec_](uint32_t raw) -> uint8_t* {
    const uint32_t tag = rsf::net::FrameTag(raw);
    const uint32_t length = rsf::net::FrameLength(raw);
    if (tag == rsf::net::kFrameTagShmDescriptor) {
      if (length == 0 || length > kShmMaxControlFrame) return nullptr;
      wl->shm.ctrl_buf.resize(length);
      return wl->shm.ctrl_buf.data();
    }
    if (tag == rsf::net::kFrameTagMcastRepair) {
      // Unicast repair of a lost multicast frame: [u64 seq | frame].
      // Staged, then copied into its destination — the rare lossy path.
      if (length < kMcastRepairHeaderSize) return nullptr;
      wl->mcast.repair_buf.resize(length);
      return wl->mcast.repair_buf.data();
    }
    if (tag != rsf::net::kFrameTagData) return nullptr;
    return wl->dest.Land(codec, length);
  };
  callbacks.on_frame = [weak, wl](uint32_t raw) {
    if (auto self = weak.lock()) self->OnFrame(wl, raw);
  };
  callbacks.on_established =
      [weak, wl](const std::shared_ptr<rsf::net::Link>& link) {
        wl->loop_link = link;
        if (wl->mcast.negotiated) {
          if (auto self = weak.lock()) self->McastJoin(wl);
        }
      };
  callbacks.on_closed = [weak, wl](const std::shared_ptr<rsf::net::Link>&) {
    if (auto self = weak.lock()) self->RemoveWireLink(wl);
  };

  auto link =
      rsf::net::Link::Dial(endpoint.host, endpoint.port, loop,
                           rsf::net::Link::Options{}, std::move(callbacks));
  {
    std::lock_guard<std::mutex> lock(links_mutex_);
    if (!shutdown_.load(std::memory_order_acquire)) {
      wl->link = link;
      // A dial that already failed ran on_closed before we got here;
      // don't file a dead link.
      if (!wl->removed) wire_links_.push_back(wl);
      return;
    }
  }
  // Shut down while dialing: tear the link back down.
  link->CloseSync();
}

void Subscription::OnFrame(const WirePtr& wl, uint32_t raw) {
  if (shutdown_.load(std::memory_order_acquire)) return;
  const uint32_t length = rsf::net::FrameLength(raw);
  switch (rsf::net::FrameTag(raw)) {
    case rsf::net::kFrameTagShmDescriptor:
      OnShmDescriptor(wl, length);
      break;
    case rsf::net::kFrameTagMcastRepair:
      OnMcastRepair(wl, length);
      break;
    default:
      Finish(wl, wl->dest, length);
  }
}

void Subscription::Finish(const WirePtr& wl, RxDest& dest, uint32_t length) {
  const bool shm = dest.shared != nullptr;
  // Lives until Finish returns, so an opaque codec's view of the bytes
  // stays valid through an inline dispatch.
  const RxFrame frame{dest.data, length, wl->type, wl->md5sum};
  auto msg = Decode(frame, dest);
  if (!msg.ok()) {
    dest.block.reset();  // an unadopted arena goes back to the pool now
    malformed_.fetch_add(1, std::memory_order_relaxed);
    RSF_ERROR("dropping malformed message on %s: %s", topic_.c_str(),
              msg.status().ToString().c_str());
    return;
  }
  received_.fetch_add(1, std::memory_order_relaxed);
  if (shm) shm_zero_copy_.fetch_add(1, std::memory_order_relaxed);
  MessagePtr message = *std::move(msg);

  // Simulated-link shaping (only plain TCP links are ever shaped): hold
  // delivery for wire + propagation time, paced on the loop.  Reads pause
  // until the frame is delivered, so at most one frame is in flight and
  // unread bytes back up into the kernel buffer — the flow control a
  // blocking shaped reader would exert.
  if (ShapedLink()) {
    const uint64_t delay = shaper_.DelayFor(length + 4, rsf::MonotonicNanos());
    if (delay > 0 && wl->loop_link != nullptr) {
      wl->loop_link->PauseReading();
      std::weak_ptr<Subscription> weak = weak_from_this();
      const bool armed =
          wl->loop_link->loop()->RunAfter(delay, [weak, wl, message] {
            if (auto self = weak.lock()) {
              if (!self->shutdown_.load(std::memory_order_acquire)) {
                self->Dispatch(message);
              }
            }
            wl->loop_link->ResumeReading();  // no-op unless established
          });
      if (armed) return;
      // Loop is stopping: deliver inline rather than drop silently.
      wl->loop_link->ResumeReading();
    }
  }
  Dispatch(std::move(message));
}

rsf::Result<Subscription::MessagePtr> Subscription::Decode(
    const RxFrame& frame, RxDest& dest) {
  if (!codec_.serialization_free) return codec_.decode(frame);
  if (frame.length < codec_.skeleton_size) {
    return rsf::OutOfRangeError("SFM frame smaller than the skeleton");
  }
  // The adopted record start IS the message — the "dummy
  // de-serialization routine" of paper Fig. 9.  Releasing the record
  // frees the arena block, or drops the shm block's cross-process
  // reference.
  const uint8_t* start =
      dest.shared != nullptr
          ? sfm::gmm().AdoptShared(codec_.datatype, std::move(dest.shared),
                                   frame.length, frame.length)
          : sfm::gmm().AdoptReceived(codec_.datatype, std::move(dest.block),
                                     dest.capacity, frame.length);
  return MessagePtr(start, [](const uint8_t* record) {
    sfm::gmm().Release(const_cast<uint8_t*>(record));
  });
}

// ---- shm tier (loop-thread-only after the handshake) ----

/// A descriptor frame arrived on a shm-negotiated link.  Maps the
/// referenced block (attaching its segment on first use), and finishes it
/// as the received frame — the aliased buffer's control block holds the
/// cross-process reference.  Consumption is acked so the publisher releases
/// its pin; any distrustful failure sends "disable" and drops the link
/// back to inline TCP (the publisher then retransmits everything unacked).
void Subscription::OnShmDescriptor(const WirePtr& wl, uint32_t length) {
  sfm::shm::Descriptor descriptor;
  // Only an SFM subscription negotiates the tier, and a descriptor stands
  // in for a frame, so it can never exceed one.
  if (!codec_.serialization_free || !wl->shm.negotiated ||
      !DecodeShmDescriptor(wl->shm.ctrl_buf.data(), length, &descriptor) ||
      descriptor.length > rsf::net::kMaxFramePayload) {
    ShmLeaveTier(wl, "malformed shm descriptor");
    return;
  }
  // Tier already abandoned: in-flight descriptors are superseded by the
  // publisher's inline retransmits.
  if (wl->shm.broken) return;
  auto buffer = ShmMapDescriptor(wl->shm, descriptor, codec_.skeleton_size);
  if (buffer.ok()) {
    RxDest dest;
    dest.shared = *std::move(buffer);
    dest.data = dest.shared.get();
    Finish(wl, dest, static_cast<uint32_t>(descriptor.length));
  } else if (buffer.status().code() != rsf::StatusCode::kUnavailable) {
    ShmLeaveTier(wl, buffer.status().ToString().c_str());
    return;
  }
  // kUnavailable means only this message is gone (the publisher evicted
  // its pin and the block recycled): drop-oldest semantics.  Acked either
  // way so the ledger advances.
  wl->SendControl(EncodeShmControlFrame(ShmControlKind::kAck, descriptor.seq),
                  rsf::net::kFrameTagShmControl, kShmControlSize);
}

/// Abandons the shm tier for this link and tells the publisher, which
/// retransmits every unacked pin inline.
void Subscription::ShmLeaveTier(const WirePtr& wl, const char* why) {
  if (wl->shm.broken) return;
  RSF_WARN("subscription to %s leaving the shm tier: %s", topic_.c_str(),
           why);
  wl->shm.broken = true;
  wl->SendControl(EncodeShmControlFrame(ShmControlKind::kDisable, 0),
                  rsf::net::kFrameTagShmControl, kShmControlSize);
}

// ---- mcast tier (loop-thread-only after the handshake) ----
//
// The socket drain, repair intake and teardown live on McastSubState next
// to the reassembly engine (mcast_transport.cpp); this block wires the
// engine's hooks into the shared receive path.

/// Joins the granted group at establishment.  A join failure sends
/// "leave" immediately — the publisher's lane falls back to TCP.
void Subscription::McastJoin(const WirePtr& wl) {
  std::weak_ptr<Subscription> weak = weak_from_this();
  McastRxEngine::Hooks hooks;
  hooks.alloc = [wl, codec = codec_](uint64_t seq, uint32_t frame_len) {
    return wl->mcast_rx[seq].Land(codec, frame_len);
  };
  hooks.complete = [weak, wl](uint64_t seq, uint32_t frame_len) {
    auto self = weak.lock();
    auto it = wl->mcast_rx.find(seq);
    if (self == nullptr || it == wl->mcast_rx.end()) return;
    // Moved out before the erase: a regular message's staging buffer must
    // outlive its decoding.
    RxDest dest = std::move(it->second);
    wl->mcast_rx.erase(it);
    self->Finish(wl, dest, frame_len);
  };
  hooks.abandon = [wl](uint64_t seq) { wl->mcast_rx.erase(seq); };
  hooks.send_control = [wl](McastControlKind kind, uint64_t lo, uint64_t hi) {
    wl->SendControl(EncodeMcastControlFrame(kind, lo, hi),
                    rsf::net::kFrameTagMcastControl, kMcastControlSize);
  };
  hooks.schedule = [wl](uint64_t delay, std::function<void()> fire) {
    // `wl` keeps the engine alive until the timer runs; the null check
    // covers a tier torn down in between.
    (void)wl->mcast.loop->RunAfter(delay, [wl, fire = std::move(fire)] {
      if (!wl->mcast.broken && wl->mcast.engine != nullptr) fire();
    });
  };
  const auto joined = wl->mcast.Join(std::move(hooks));
  if (!joined.ok()) {
    McastLeaveTier(wl, joined.ToString().c_str());
    return;
  }
  wl->mcast.loop->Add(wl->mcast.socket.fd(), rsf::net::kEventReadable,
                      [weak, wl](uint32_t) {
                        if (auto self = weak.lock()) self->OnMcastReadable(wl);
                      });
  wl->mcast.fd_registered = true;
}

void Subscription::OnMcastReadable(const WirePtr& wl) {
  if (shutdown_.load(std::memory_order_acquire)) return;
  const auto drained = wl->mcast.Drain();
  if (!drained.ok()) McastLeaveTier(wl, drained.ToString().c_str());
}

void Subscription::OnMcastRepair(const WirePtr& wl, uint32_t length) {
  const auto repaired = wl->mcast.Repair(length);
  if (!repaired.ok()) McastLeaveTier(wl, repaired.ToString().c_str());
}

/// Abandons the mcast tier for this link.  The leave control frame
/// carries our contiguous delivery point; the publisher replays everything
/// newer inline and the link is plain TCP from here.
void Subscription::McastLeaveTier(const WirePtr& wl, const char* why) {
  if (wl->mcast.broken) return;
  RSF_WARN("subscription to %s leaving the mcast tier: %s", topic_.c_str(),
           why);
  wl->mcast.broken = true;
  wl->SendControl(
      EncodeMcastControlFrame(McastControlKind::kLeave, wl->mcast.Contig(), 0),
      rsf::net::kFrameTagMcastControl, kMcastControlSize);
  wl->McastTeardown();
}

// ---- teardown and dispatch ----

void Subscription::RemoveWireLink(const WirePtr& wl) {
  // On the link's loop thread — safe to tear down the mcast side here,
  // outside links_mutex_.
  wl->McastTeardown();
  std::lock_guard<std::mutex> lock(links_mutex_);
  wl->removed = true;
  std::erase(wire_links_, wl);
}

bool Subscription::DeliverIntra(const MessagePtr& msg, IntraTier tier) {
  if (shutdown_.load(std::memory_order_acquire)) return false;
  received_.fetch_add(1, std::memory_order_relaxed);
  (tier == IntraTier::kZeroCopy ? intra_zero_copy_ : intra_whole_copy_)
      .fetch_add(1, std::memory_order_relaxed);
  Dispatch(msg);
  return true;
}

void Subscription::Dispatch(MessagePtr msg) {
  if (options_.inline_dispatch) {
    callback_(std::move(msg));
    return;
  }
  pending_.Push(std::move(msg));
  // Weak capture: the subscription owns queue_, so a shared self here
  // would cycle through any task left undrained at destruction.  A dead
  // subscription's queued dispatches just no-op (Shutdown discards
  // pending_ regardless).
  std::weak_ptr<Subscription> weak = weak_from_this();
  queue_->Enqueue([weak] {
    if (auto self = weak.lock()) {
      if (auto pending = self->pending_.TryPop()) {
        self->callback_(*std::move(pending));
      }
    }
  });
}

}  // namespace ros
