#include "ros/bag.h"

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>

#include "common/clock.h"
#include "common/endian.h"
#include "net/framing.h"
#include "ros/master.h"
#include "ros/publication.h"
#include "ros/subscription.h"

namespace ros {
namespace {

constexpr char kMagic[] = "RSFBAG\x01\n";
constexpr size_t kMagicLen = sizeof(kMagic) - 1;

void WriteU32(std::ofstream& out, uint32_t value) {
  uint8_t bytes[4];
  rsf::StoreLE(bytes, value);
  out.write(reinterpret_cast<const char*>(bytes), 4);
}

void WriteU64(std::ofstream& out, uint64_t value) {
  uint8_t bytes[8];
  rsf::StoreLE(bytes, value);
  out.write(reinterpret_cast<const char*>(bytes), 8);
}

rsf::Status ReadU32(std::ifstream& in, uint32_t* value) {
  uint8_t bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  if (!in) return rsf::OutOfRangeError("truncated bag record");
  *value = rsf::LoadLE<uint32_t>(bytes);
  return rsf::Status::Ok();
}

rsf::Status ReadU64(std::ifstream& in, uint64_t* value) {
  uint8_t bytes[8];
  in.read(reinterpret_cast<char*>(bytes), 8);
  if (!in) return rsf::OutOfRangeError("truncated bag record");
  *value = rsf::LoadLE<uint64_t>(bytes);
  return rsf::Status::Ok();
}

rsf::Status ReadString(std::ifstream& in, std::string* out) {
  uint32_t length = 0;
  RSF_RETURN_IF_ERROR(ReadU32(in, &length));
  if (length > 1 << 20) return rsf::OutOfRangeError("bag string too long");
  out->resize(length);
  in.read(out->data(), length);
  if (!in) return rsf::OutOfRangeError("truncated bag string");
  return rsf::Status::Ok();
}

}  // namespace

rsf::Result<BagWriter> BagWriter::Open(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return rsf::UnavailableError("cannot open bag for write: " + path);
  out.write(kMagic, kMagicLen);
  return BagWriter(std::move(out));
}

rsf::Status BagWriter::Write(const std::string& topic,
                             const std::string& datatype,
                             const std::string& md5sum, uint64_t stamp_nanos,
                             const uint8_t* payload, size_t payload_size) {
  if (!out_.is_open()) return rsf::FailedPreconditionError("bag closed");
  WriteU32(out_, static_cast<uint32_t>(topic.size()));
  out_.write(topic.data(), static_cast<std::streamsize>(topic.size()));
  WriteU32(out_, static_cast<uint32_t>(datatype.size()));
  out_.write(datatype.data(), static_cast<std::streamsize>(datatype.size()));
  WriteU32(out_, static_cast<uint32_t>(md5sum.size()));
  out_.write(md5sum.data(), static_cast<std::streamsize>(md5sum.size()));
  WriteU64(out_, stamp_nanos);
  WriteU32(out_, static_cast<uint32_t>(payload_size));
  out_.write(reinterpret_cast<const char*>(payload),
             static_cast<std::streamsize>(payload_size));
  if (!out_) return rsf::UnavailableError("bag write failed");
  ++records_;
  return rsf::Status::Ok();
}

rsf::Status BagWriter::Close() {
  if (!out_.is_open()) return rsf::Status::Ok();
  out_.flush();
  out_.close();
  return out_.fail() ? rsf::UnavailableError("bag close failed")
                     : rsf::Status::Ok();
}

rsf::Result<BagReader> BagReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return rsf::NotFoundError("cannot open bag: " + path);
  char magic[kMagicLen];
  in.read(magic, kMagicLen);
  if (!in || std::memcmp(magic, kMagic, kMagicLen) != 0) {
    return rsf::InvalidArgumentError("not a bag file: " + path);
  }
  return BagReader(std::move(in));
}

rsf::Result<BagRecord> BagReader::Next() {
  if (in_.peek() == EOF) return rsf::NotFoundError("end of bag");
  BagRecord record;
  RSF_RETURN_IF_ERROR(ReadString(in_, &record.topic));
  RSF_RETURN_IF_ERROR(ReadString(in_, &record.datatype));
  RSF_RETURN_IF_ERROR(ReadString(in_, &record.md5sum));
  RSF_RETURN_IF_ERROR(ReadU64(in_, &record.stamp_nanos));
  uint32_t payload_size = 0;
  RSF_RETURN_IF_ERROR(ReadU32(in_, &payload_size));
  if (payload_size > rsf::net::kMaxFramePayload) {
    return rsf::OutOfRangeError("bag payload too large");
  }
  record.payload.resize(payload_size);
  in_.read(reinterpret_cast<char*>(record.payload.data()), payload_size);
  if (!in_) return rsf::OutOfRangeError("truncated bag payload");
  return record;
}

rsf::Result<std::vector<BagRecord>> BagReader::ReadAll() {
  std::vector<BagRecord> records;
  while (true) {
    auto record = Next();
    if (!record.ok()) {
      if (record.status().code() == rsf::StatusCode::kNotFound) break;
      return record.status();
    }
    records.push_back(*std::move(record));
  }
  return records;
}

// ---- TopicRecorder ----
//
// A client of the ordinary subscription path with an opaque codec: it
// handshakes with datatype "*" / md5 "*", which the publisher-side
// validation accepts (rostopic/rosbag behaviour), stages each frame's raw
// bytes in the link's reused staging buffer, and records them with the
// type / md5sum the publisher's reply announced.  Pinned to inline TCP —
// no in-process, shm, or multicast tier — so a record is always the wire
// frame.  The recorder spawns NO threads: the callback runs inline on the
// reactor loop that read the frame (bag appends are small buffered
// ofstream writes, serialized across links by write_mutex since one
// BagWriter can span topics and loops).

struct TopicRecorder::Impl {
  std::mutex write_mutex;
  std::atomic<uint64_t> recorded{0};
  std::shared_ptr<Subscription> subscription;
};

namespace {

/// The opaque codec's "message" is a borrowed view of the landed frame,
/// valid for the inline dispatch that consumes it.
rsf::Result<std::shared_ptr<const void>> ViewFrame(const RxFrame& frame) {
  return std::shared_ptr<const void>(std::shared_ptr<const void>(), &frame);
}

}  // namespace

TopicRecorder::TopicRecorder(const std::string& topic, BagWriter* writer)
    : impl_(std::make_shared<Impl>()) {
  SubscribeOptions options;
  options.inline_dispatch = true;
  options.allow_intra_process = false;
  options.allow_shm = false;
  options.allow_mcast = false;
  RxCodec codec;
  codec.decode = &ViewFrame;
  // The callback runs on a loop thread until Shutdown returns; `impl` is
  // owned by this recorder, whose destructor shuts the subscription down.
  auto subscription = Subscription::Create(
      topic, "*", "rsfbag_record", options, codec,
      [topic, writer, impl = impl_.get()](Subscription::MessagePtr view) {
        const auto& frame = *static_cast<const RxFrame*>(view.get());
        std::lock_guard<std::mutex> lock(impl->write_mutex);
        const auto now = rsf::Time::Now().ToNanos();
        if (writer->Write(topic, frame.type, frame.md5sum, now, frame.data,
                          frame.length)
                .ok()) {
          impl->recorded.fetch_add(1, std::memory_order_relaxed);
        }
      },
      nullptr);
  SFM_CHECK_MSG(subscription.ok(), subscription.status().ToString().c_str());
  impl_->subscription = *std::move(subscription);
}

TopicRecorder::~TopicRecorder() { Shutdown(); }

uint64_t TopicRecorder::recorded() const {
  return impl_->recorded.load(std::memory_order_relaxed);
}

void TopicRecorder::Shutdown() { impl_->subscription->Shutdown(); }

rsf::Result<uint64_t> PlayBag(const std::string& path, double rate) {
  auto reader = BagReader::Open(path);
  if (!reader.ok()) return reader.status();
  auto records = reader->ReadAll();
  if (!records.ok()) return records.status();
  if (records->empty()) return uint64_t{0};

  // One publication per distinct topic.
  std::map<std::string, std::shared_ptr<Publication>> publications;
  for (const auto& record : *records) {
    if (publications.count(record.topic) != 0) continue;
    auto publication = Publication::Create(record.topic, record.datatype,
                                           record.md5sum, "rsfbag_play", 16);
    if (!publication.ok()) return publication.status();
    RSF_RETURN_IF_ERROR(master().RegisterPublisher(
        record.topic, record.datatype, record.md5sum,
        TopicEndpoint{"127.0.0.1", (*publication)->port(), "rsfbag_play"}));
    publications.emplace(record.topic, *std::move(publication));
  }
  // Give subscribers a beat to connect (rosbag play has the same race).
  rsf::SleepForNanos(50'000'000);

  uint64_t published = 0;
  uint64_t previous_stamp = (*records)[0].stamp_nanos;
  for (auto& record : *records) {
    if (rate > 0 && record.stamp_nanos > previous_stamp) {
      rsf::SleepForNanos(static_cast<uint64_t>(
          static_cast<double>(record.stamp_nanos - previous_stamp) / rate));
    }
    previous_stamp = record.stamp_nanos;

    // The record's payload is already exactly the wire frame body: move it
    // into a shared holder and alias it, so every subscriber link's writer
    // queue references the bag bytes directly — no re-serialize, no copy.
    const size_t size = record.payload.size();
    auto holder =
        std::make_shared<std::vector<uint8_t>>(std::move(record.payload));
    if (holder->empty()) holder->resize(1);  // keep data() non-null
    publications[record.topic]->Publish(SerializedMessage{
        std::shared_ptr<uint8_t[]>(holder, holder->data()), size});
    ++published;
  }
  // Let the frames drain before tearing the publications down.
  rsf::SleepForNanos(100'000'000);
  for (const auto& [topic, publication] : publications) {
    master().UnregisterPublisher(
        topic, TopicEndpoint{"127.0.0.1", publication->port(), "rsfbag_play"});
    publication->Shutdown();
  }
  return published;
}

}  // namespace ros
