// Bag files: record and play back topic traffic, the rosbag workflow the
// ROS ecosystem (and the paper's TUM-dataset playback node) relies on.
//
// Format (little-endian):
//   magic "RSFBAG\x01\n"
//   per record:
//     uint32 topic_len,   topic bytes
//     uint32 type_len,    datatype bytes
//     uint32 md5_len,     md5 bytes
//     uint64 stamp_nanos  (wall-clock receive time)
//     uint32 payload_len, payload bytes (the wire-format frame body)
//
// Records hold the WIRE form, so a bag written from an SFM topic stores the
// arena bytes verbatim (zero serialization, like the live path) and can be
// replayed into SFM subscribers unchanged.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "ros/serialized_message.h"

namespace ros {

struct BagRecord {
  std::string topic;
  std::string datatype;
  std::string md5sum;
  uint64_t stamp_nanos = 0;
  std::vector<uint8_t> payload;
};

class BagWriter {
 public:
  /// Opens (truncates) `path` and writes the magic.
  static rsf::Result<BagWriter> Open(const std::string& path);

  BagWriter(BagWriter&&) = default;
  BagWriter& operator=(BagWriter&&) = default;

  /// Appends one record.
  rsf::Status Write(const std::string& topic, const std::string& datatype,
                    const std::string& md5sum, uint64_t stamp_nanos,
                    const uint8_t* payload, size_t payload_size);

  rsf::Status Write(const BagRecord& record) {
    return Write(record.topic, record.datatype, record.md5sum,
                 record.stamp_nanos, record.payload.data(),
                 record.payload.size());
  }

  [[nodiscard]] uint64_t record_count() const noexcept { return records_; }

  /// Flushes and closes; further writes fail.
  rsf::Status Close();

 private:
  explicit BagWriter(std::ofstream out) : out_(std::move(out)) {}
  std::ofstream out_;
  uint64_t records_ = 0;
};

class BagReader {
 public:
  /// Opens `path` and validates the magic.
  static rsf::Result<BagReader> Open(const std::string& path);

  BagReader(BagReader&&) = default;
  BagReader& operator=(BagReader&&) = default;

  /// Reads the next record; kNotFound at clean end-of-bag, other codes on
  /// corruption.
  rsf::Result<BagRecord> Next();

  /// Reads all remaining records.
  rsf::Result<std::vector<BagRecord>> ReadAll();

 private:
  explicit BagReader(std::ifstream in) : in_(std::move(in)) {}
  std::ifstream in_;
};

/// Subscribes to a topic (type-erased: any datatype, checksum "*") and
/// records every frame into a writer — the `rosbag record` role.  Works for
/// regular and SFM topics alike since both are opaque frames on the wire.
/// It is an ordinary Subscription (subscription.h) with an opaque codec:
/// frames stage as raw bytes and are recorded inline on the reactor loop
/// with the type / md5sum the publisher's handshake reply announced.  It
/// stays on inline TCP (no in-process, shm or multicast tier), so every
/// record is the wire frame.
class TopicRecorder {
 public:
  /// `writer` must outlive the recorder.
  TopicRecorder(const std::string& topic, BagWriter* writer);
  ~TopicRecorder();
  TopicRecorder(const TopicRecorder&) = delete;
  TopicRecorder& operator=(const TopicRecorder&) = delete;

  [[nodiscard]] uint64_t recorded() const;

  void Shutdown();

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Plays a bag back into fresh publications — the `rosbag play` role.
/// Respects inter-record timing scaled by `rate` (0 = as fast as possible).
/// Returns the number of records published.
rsf::Result<uint64_t> PlayBag(const std::string& path, double rate = 0.0);

}  // namespace ros
