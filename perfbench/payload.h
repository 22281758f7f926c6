// Workload definitions and seeded payloads for the cross-process benchmark.
//
// Both processes build the same tables from the seed: the generator uses
// them to fill messages, the subscriber to verify them.  Every per-message
// choice is a pure function of (seed, topic, seq), so the subscriber can
// check any message it receives without state shared with the publisher.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "nav_msgs/Odometry.h"
#include "rsf_msgs/sfm/Dictionary.h"
#include "sensor_msgs/Imu.h"
#include "sensor_msgs/sfm/Image.h"
#include "sensor_msgs/sfm/LaserScan.h"

namespace perfbench {

using Image = sensor_msgs::sfm::Image;
using Imu = sensor_msgs::Imu;
using Odometry = nav_msgs::Odometry;
using Scan = sensor_msgs::sfm::LaserScan;
using Dictionary = rsf_msgs::sfm::Dictionary;

enum class Kind : uint8_t { kImage, kImu, kOdom, kScan, kDict };

struct TopicSpec {
  Kind kind;
  const char* name;
  double hz;  // nominal open-loop rate
};

/// One workload: its wire topics (one connection each, at most 4), whether
/// it opts into the shm tier, and whether /scan also has a co-located
/// subscriber in the publisher process.
struct WorkloadSpec {
  const char* name;
  bool shm;
  bool colocated_scan;
  // Publisher and subscriber queue depth: 128 ms or more at the fastest
  // topic's rate, so a scheduling stall of the subscriber process does not
  // turn into drop-oldest losses at the nominal rates.
  size_t queue_size;
  uint32_t window;    // closed-loop in-flight window (all topics together)
  std::vector<TopicSpec> topics;
};

inline constexpr size_t kMaxTopics = 4;

inline const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"camera_tcp", false, false, 16, 4, {{Kind::kImage, "/camera", 100.0}}},
      {"camera_shm", true, false, 16, 4, {{Kind::kImage, "/camera", 100.0}}},
      {"telemetry_mix",
       false,
       true,
       256,
       16,
       {{Kind::kImu, "/imu", 2000.0},
        {Kind::kOdom, "/odom", 1000.0},
        {Kind::kScan, "/scan", 500.0},
        {Kind::kDict, "/diagnostics", 100.0}}},
  };
  return kWorkloads;
}

inline const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const auto& workload : Workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

// ---- seeded choices ----

inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Salts keep the independent per-message choices uncorrelated.
enum Salt : uint64_t {
  kSaltSize = 1,
  kSaltPage = 2,
  kSaltValue = 3,
  kSaltPhase = 4,
  kSaltJitter = 5,
  kSaltPick = 6,
  kSaltFrame = 7,
};

inline uint64_t Hash(uint64_t seed, uint64_t topic, uint64_t seq,
                     uint64_t salt) {
  return Mix(seed ^ Mix(topic ^ Mix(seq ^ Mix(salt))));
}

/// Uniform in [0, 1).
inline double Unit(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

/// The camera size mix: a sub-shm-threshold thumbnail, the paper's ~200KB
/// and ~1MB points, and its 1080p ~6MB point.  The weights put the median
/// inside the 200KB class and the 99th percentile inside the 6MB class for
/// any seed, so seed-to-seed variation of the class shares cannot move a
/// reported percentile across a class boundary.
struct ImageClass {
  uint32_t width;
  uint32_t height;
  double weight;
};
inline constexpr std::array<ImageClass, 4> kImageClasses = {{
    {104, 104, 0.20},    // 32,448 B
    {256, 256, 0.40},    // 196,608 B
    {640, 512, 0.30},    // 983,040 B
    {1920, 1080, 0.10},  // 6,220,800 B
}};
inline constexpr size_t kMaxImageBytes = 1920 * 1080 * 3;

/// Seq 0 is the first set-up probe: a thumbnail for every seed, so the
/// set-up time does not depend on which size the seed draws first.
inline const ImageClass& PickImageClass(uint64_t seed, uint32_t topic,
                                        uint64_t seq) {
  if (seq == 0) return kImageClasses.front();
  double u = Unit(Hash(seed, topic, seq, kSaltSize));
  for (const auto& cls : kImageClasses) {
    if (u < cls.weight) return cls;
    u -= cls.weight;
  }
  return kImageClasses.back();
}

/// Position in kImageClasses of the size PickImageClass draws.
inline uint32_t ImageClassIndex(uint64_t seed, uint32_t topic, uint64_t seq) {
  return static_cast<uint32_t>(&PickImageClass(seed, topic, seq) -
                               kImageClasses.data());
}

inline constexpr size_t kScanRanges = 1000;  // 4,000 B of float32 ranges
inline constexpr size_t kDictEntries = 8;
inline constexpr size_t kPage = 4096;

inline size_t DictValueLength(uint64_t seed, uint32_t topic, uint64_t seq,
                              size_t entry) {
  return 16 + Hash(seed, topic, seq * kDictEntries + entry, kSaltSize) % 112;
}

/// The per-message marker written at every page start and at the last
/// byte of a payload.  A stale, truncated, shifted or cross-wired payload
/// misses at least one of them.
inline uint8_t Marker(uint64_t seed, uint32_t topic, uint64_t seq,
                      uint64_t page) {
  return static_cast<uint8_t>(Hash(seed, topic, seq, kSaltPage + (page << 8)));
}

inline void StampMarkers(uint8_t* data, size_t bytes, uint64_t seed,
                         uint32_t topic, uint64_t seq) {
  if (bytes == 0) return;
  for (size_t off = 0; off < bytes; off += kPage) {
    data[off] = Marker(seed, topic, seq, off / kPage);
  }
  data[bytes - 1] = Marker(seed, topic, seq, 0xFFFFFull);
}

inline bool CheckMarkers(const uint8_t* data, size_t bytes, uint64_t seed,
                         uint32_t topic, uint64_t seq) {
  if (bytes == 0) return false;
  for (size_t off = 0; off < bytes; off += kPage) {
    if (data[off] != Marker(seed, topic, seq, off / kPage)) return false;
  }
  return data[bytes - 1] == Marker(seed, topic, seq, 0xFFFFFull);
}

inline double SeededDouble(uint64_t seed, uint32_t topic, uint64_t seq,
                           size_t index) {
  return Unit(Hash(seed, topic, seq * 128 + index, kSaltValue));
}

/// What a generator needs to fill one message: the seed, the topic's index
/// and name within its workload, and a seeded source frame the pixel and
/// range payloads are copied from, as a camera node copies its frame.
struct FillContext {
  uint64_t seed;
  uint32_t topic;
  const char* topic_name;
  const uint8_t* frame;  // kMaxImageBytes seeded bytes
};

/// A seeded frame bank, generated once per generator process.
inline std::vector<uint8_t> MakeFrame(uint64_t seed) {
  std::vector<uint8_t> frame(kMaxImageBytes);
  for (size_t i = 0; i < frame.size(); i += 8) {
    const uint64_t h = Hash(seed, 0, i, kSaltFrame);
    std::memcpy(frame.data() + i, &h, std::min<size_t>(8, frame.size() - i));
  }
  return frame;
}

template <typename Header>
void FillHeader(Header& header, const FillContext& ctx, uint32_t seq,
                uint64_t stamp_nanos) {
  header.seq = seq;
  header.stamp = rsf::Time::FromNanos(stamp_nanos);
  header.frame_id = ctx.topic_name;
}

template <typename Header>
bool CheckHeader(const Header& header, const char* topic_name) {
  return std::string_view(header.frame_id.data(), header.frame_id.size()) ==
         topic_name;
}

// Fill/Verify overloads return the verified payload bytes a message
// carries: the generated pattern its variable-length or covariance fields
// hold.  Verify returns 0 on any mismatch (every payload is non-empty).

inline size_t Fill(Image& msg, const FillContext& ctx, uint32_t seq,
                   uint64_t stamp) {
  const ImageClass& cls = PickImageClass(ctx.seed, ctx.topic, seq);
  FillHeader(msg.header, ctx, seq, stamp);
  msg.height = cls.height;
  msg.width = cls.width;
  msg.encoding = "rgb8";
  msg.step = cls.width * 3;
  const size_t bytes = static_cast<size_t>(cls.width) * cls.height * 3;
  msg.data.resize(bytes);
  std::memcpy(msg.data.data(), ctx.frame, bytes);
  StampMarkers(msg.data.data(), bytes, ctx.seed, ctx.topic, seq);
  return bytes;
}

inline size_t Verify(const Image& msg, uint64_t seed, uint32_t topic,
                     const char* topic_name) {
  const uint32_t seq = msg.header.seq;
  const ImageClass& cls = PickImageClass(seed, topic, seq);
  const size_t bytes = static_cast<size_t>(cls.width) * cls.height * 3;
  if (!CheckHeader(msg.header, topic_name) || msg.width != cls.width ||
      msg.height != cls.height || msg.step != cls.width * 3 ||
      msg.encoding != "rgb8" || msg.data.size() != bytes ||
      !CheckMarkers(msg.data.data(), bytes, seed, topic, seq)) {
    return 0;
  }
  return bytes;
}

inline size_t Fill(Scan& msg, const FillContext& ctx, uint32_t seq,
                   uint64_t stamp) {
  FillHeader(msg.header, ctx, seq, stamp);
  msg.angle_min = -3.14159f;
  msg.angle_max = 3.14159f;
  msg.angle_increment = 6.28318f / kScanRanges;
  msg.range_min = 0.1f;
  msg.range_max = 30.0f;
  // Staged on the stack: the arena vector's storage sits at an offset
  // from the vector object, which the compiler's bounds analysis cannot
  // follow through a byte pointer.
  std::array<uint8_t, kScanRanges * sizeof(float)> staged;
  std::memcpy(staged.data(), ctx.frame, staged.size());
  StampMarkers(staged.data(), staged.size(), ctx.seed, ctx.topic, seq);
  msg.ranges.resize(kScanRanges);
  std::memcpy(msg.ranges.data(), staged.data(), staged.size());
  return staged.size();
}

inline size_t Verify(const Scan& msg, uint64_t seed, uint32_t topic,
                     const char* topic_name) {
  const size_t length = kScanRanges * sizeof(float);
  if (!CheckHeader(msg.header, topic_name) ||
      msg.ranges.size() != kScanRanges ||
      !CheckMarkers(reinterpret_cast<const uint8_t*>(msg.ranges.data()),
                    length, seed, topic, msg.header.seq)) {
    return 0;
  }
  return length;
}

inline std::string DictValue(uint64_t seed, uint32_t topic, uint64_t seq,
                             size_t entry) {
  std::string value(DictValueLength(seed, topic, seq, entry), 'x');
  const uint64_t h = Hash(seed, topic, seq * kDictEntries + entry, kSaltValue);
  for (size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<char>('a' + (h >> (i % 56)) % 26);
  }
  value.front() = static_cast<char>('A' + h % 26);
  value.back() = static_cast<char>('A' + (h >> 8) % 26);
  return value;
}

inline std::string DictKey(size_t entry) {
  return "key" + std::to_string(entry);
}

inline size_t Fill(Dictionary& msg, const FillContext& ctx, uint32_t seq,
                   uint64_t stamp) {
  FillHeader(msg.header, ctx, seq, stamp);
  msg.entries.resize(kDictEntries);
  size_t bytes = 0;
  for (size_t i = 0; i < kDictEntries; ++i) {
    const std::string key = DictKey(i);
    const std::string value = DictValue(ctx.seed, ctx.topic, seq, i);
    msg.entries[i].key = key;
    msg.entries[i].value = value;
    bytes += key.size() + value.size();
  }
  return bytes;
}

inline size_t Verify(const Dictionary& msg, uint64_t seed, uint32_t topic,
                     const char* topic_name) {
  if (!CheckHeader(msg.header, topic_name) ||
      msg.entries.size() != kDictEntries) {
    return 0;
  }
  size_t bytes = 0;
  for (size_t i = 0; i < kDictEntries; ++i) {
    const std::string expected = DictValue(seed, topic, msg.header.seq, i);
    const auto& entry = msg.entries[i];
    if (entry.key != DictKey(i) || entry.value != expected) return 0;
    bytes += entry.key.size() + entry.value.size();
  }
  return bytes;
}

template <size_t N>
void FillDoubles(std::array<double, N>& out, const FillContext& ctx,
                 uint32_t seq, size_t base) {
  for (size_t i = 0; i < N; ++i) {
    out[i] = SeededDouble(ctx.seed, ctx.topic, seq, base + i);
  }
}

template <size_t N>
bool CheckDoubles(const std::array<double, N>& in, uint64_t seed,
                  uint32_t topic, uint32_t seq, size_t base) {
  for (size_t i = 0; i < N; ++i) {
    if (in[i] != SeededDouble(seed, topic, seq, base + i)) return false;
  }
  return true;
}

inline size_t Fill(Imu& msg, const FillContext& ctx, uint32_t seq,
                   uint64_t stamp) {
  FillHeader(msg.header, ctx, seq, stamp);
  msg.orientation.w = 1.0;
  FillDoubles(msg.orientation_covariance, ctx, seq, 0);
  FillDoubles(msg.angular_velocity_covariance, ctx, seq, 9);
  FillDoubles(msg.linear_acceleration_covariance, ctx, seq, 18);
  return 27 * sizeof(double);
}

inline size_t Verify(const Imu& msg, uint64_t seed, uint32_t topic,
                     const char* topic_name) {
  const uint32_t seq = msg.header.seq;
  if (!CheckHeader(msg.header, topic_name) ||
      !CheckDoubles(msg.orientation_covariance, seed, topic, seq, 0) ||
      !CheckDoubles(msg.angular_velocity_covariance, seed, topic, seq, 9) ||
      !CheckDoubles(msg.linear_acceleration_covariance, seed, topic, seq,
                    18)) {
    return 0;
  }
  return 27 * sizeof(double);
}

inline size_t Fill(Odometry& msg, const FillContext& ctx, uint32_t seq,
                   uint64_t stamp) {
  FillHeader(msg.header, ctx, seq, stamp);
  msg.child_frame_id = "base_link";
  msg.pose.pose.orientation.w = 1.0;
  FillDoubles(msg.pose.covariance, ctx, seq, 0);
  FillDoubles(msg.twist.covariance, ctx, seq, 36);
  return 72 * sizeof(double);
}

inline size_t Verify(const Odometry& msg, uint64_t seed, uint32_t topic,
                     const char* topic_name) {
  const uint32_t seq = msg.header.seq;
  if (!CheckHeader(msg.header, topic_name) ||
      msg.child_frame_id != "base_link" ||
      !CheckDoubles(msg.pose.covariance, seed, topic, seq, 0) ||
      !CheckDoubles(msg.twist.covariance, seed, topic, seq, 36)) {
    return 0;
  }
  return 72 * sizeof(double);
}

/// Calls `f(std::type_identity<M>{})` with the message type of `kind`.
template <typename F>
decltype(auto) VisitKind(Kind kind, F&& f) {
  switch (kind) {
    case Kind::kImage: return f(std::type_identity<Image>{});
    case Kind::kImu: return f(std::type_identity<Imu>{});
    case Kind::kOdom: return f(std::type_identity<Odometry>{});
    case Kind::kScan: return f(std::type_identity<Scan>{});
    case Kind::kDict: break;
  }
  return f(std::type_identity<Dictionary>{});
}

}  // namespace perfbench
