// Ablation: the same-host zero-copy lane (shm descriptors, src/ros/
// shm_transport.h) and adaptive send batching (FrameWriter::GatherBudget).
//
// Part 1 — shm tier: SFM image pub/sub over a shm-negotiated link at three
// payload sizes (64KB / 512KB / 4MB).  The payload crosses as a 48-byte
// descriptor into a shared block, so latency decouples from payload size.
// (The kernel zero-copy egress tier this bench used to ablate was
// removed; its rows are kept in DESIGN.md, "Removed tiers".)
//
// Part 2 — batching sweep: a 1024-message burst of small frames down one
// link for RSF_SEND_BATCH_MAX in {8, 16, 64}; reports burst throughput and
// write syscalls per burst (the adaptive gather budget can only grow to the
// configured cap, so the cap IS the ablation knob).
//
// Prints tables and writes BENCH_zerocopy.json.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "net/sim_link.h"
#include "net/socket.h"
#include "sfm/shm_pool.h"
#include "std_msgs/String.h"

namespace {

struct ShmRow {
  const char* size_label;
  size_t payload_bytes;
  double p50_ms;  // transport-only publish-to-callback latency
  double mean_ms;
  uint64_t shm_deliveries;  // deliveries that rode a shm descriptor
};

struct BatchRow {
  size_t batch_max;
  size_t messages;
  double msgs_per_sec;
  uint64_t write_syscalls;
};

/// Image dimensions whose rgb8 payload is at least `bytes`.
uint32_t SideFor(size_t bytes) {
  uint32_t side = 1;
  while (static_cast<size_t>(side) * side * 3 < bytes) ++side;
  return side;
}

/// One shm-tier cell (loopback only: shared memory is same-host by
/// definition).
ShmRow RunShmCell(const char* size_label, size_t payload_bytes,
                  const bench::Options& options) {
  ::setenv("RSF_TRANSPORT_SHM", "1", 1);
  sfm::shm::ResetPoolForTest();

  const uint32_t side = SideFor(payload_bytes);
  const uint64_t shm_before =
      ros::shim::shm_zero_copy_deliveries.load(std::memory_order_relaxed);
  rsf::LatencyRecorder transport;
  bench::RunPubSub<sensor_msgs::sfm::Image>(
      side, side, options, rsf::net::LinkConfig::Loopback(),
      bench::Transport::kTcp, &transport);
  const uint64_t deliveries =
      ros::shim::shm_zero_copy_deliveries.load(std::memory_order_relaxed) -
      shm_before;
  ::unsetenv("RSF_TRANSPORT_SHM");
  sfm::shm::ResetPoolForTest();
  return {size_label, static_cast<size_t>(side) * side * 3,
          transport.Percentile(0.5), transport.mean_ms(), deliveries};
}

BatchRow RunBatchCell(size_t batch_max, size_t messages) {
  ::setenv("RSF_SEND_BATCH_MAX", std::to_string(batch_max).c_str(), 1);

  ros::master().Reset();
  ros::NodeHandle pub_node("pub");
  ros::NodeHandle sub_node("sub");
  const int queue = static_cast<int>(messages) + 64;  // burst without drops

  std::atomic<uint64_t> got{0};
  ros::SubscribeOptions sub_options;
  sub_options.inline_dispatch = true;
  sub_options.allow_intra_process = false;  // force the wire
  auto sub = sub_node.subscribe<std_msgs::String>(
      "/zc_batch", queue,
      [&](const std_msgs::String::ConstPtr&) {
        got.fetch_add(1, std::memory_order_relaxed);
      },
      sub_options);
  auto pub = pub_node.advertise<std_msgs::String>("/zc_batch", queue);
  bench::WaitFor([&] { return pub.getNumSubscribers() == 1; });

  std_msgs::String msg;
  msg.data.assign(1024, 'x');
  // Warm the link (handshake, first syscalls) outside the measurement.
  pub.publish(msg);
  bench::WaitFor([&] { return got.load() == 1; });

  const uint64_t syscalls_before = rsf::net::WriteSyscallCount();
  const rsf::Stopwatch watch;
  for (size_t i = 0; i < messages; ++i) pub.publish(msg);
  bench::WaitFor([&] { return got.load() == messages + 1; });
  const double seconds = watch.ElapsedNanos() * 1e-9;
  const uint64_t syscalls = rsf::net::WriteSyscallCount() - syscalls_before;

  ros::master().Reset();
  return {batch_max, messages,
          seconds > 0 ? static_cast<double>(messages) / seconds : 0.0,
          syscalls};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options options = bench::Options::Parse(argc, argv);
  if (!options.full) {
    options.iterations = 40;  // 4MB cells on one core: keep the default short
    options.hz = 200.0;
  }

  struct Size {
    const char* label;
    size_t bytes;
  };
  const Size sizes[] = {
      {"64KB", 64 * 1024}, {"512KB", 512 * 1024}, {"4MB", 4 * 1024 * 1024}};

  std::printf(
      "=== Ablation: shm tier, SFM images, %d iterations (same-host only; "
      "the payload crosses as a 48-byte descriptor) ===\n\n",
      options.iterations);
  std::printf("  %-7s %12s %12s %14s\n", "size", "p50 (ms)", "mean (ms)",
              "shm deliveries");
  std::vector<ShmRow> shm;
  for (const auto& size : sizes) {
    shm.push_back(RunShmCell(size.label, size.bytes, options));
    const ShmRow& row = shm.back();
    std::printf("  %-7s %12.3f %12.3f %14llu\n", row.size_label, row.p50_ms,
                row.mean_ms,
                static_cast<unsigned long long>(row.shm_deliveries));
  }

  const size_t burst = options.full ? 4096 : 1024;
  std::printf(
      "\n=== Ablation: send batching, 1KB frames, %zu-message burst ===\n\n",
      burst);
  std::printf("  %-10s %14s %16s\n", "batch max", "msgs/sec", "write syscalls");
  std::vector<BatchRow> batching;
  for (const size_t batch_max : {size_t{8}, size_t{16}, size_t{64}}) {
    batching.push_back(RunBatchCell(batch_max, burst));
    const BatchRow& row = batching.back();
    std::printf("  %-10zu %14.0f %16llu\n", row.batch_max, row.msgs_per_sec,
                static_cast<unsigned long long>(row.write_syscalls));
  }
  ::unsetenv("RSF_SEND_BATCH_MAX");

  FILE* json = std::fopen("BENCH_zerocopy.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"ablation_zerocopy\",\n"
                 "  \"unit\": \"transport-only publish-to-callback latency, "
                 "milliseconds\",\n"
                 "  \"iterations\": %d,\n  \"results\": [\n",
                 options.iterations);
    for (size_t i = 0; i < shm.size(); ++i) {
      const ShmRow& row = shm[i];
      std::fprintf(json,
                   "    {\"tier\": \"shm\", \"shaping\": \"loopback\", "
                   "\"size\": \"%s\", \"payload_bytes\": %zu, "
                   "\"p50_ms\": %.3f, \"mean_ms\": %.3f, "
                   "\"shm_deliveries\": %llu}%s\n",
                   row.size_label, row.payload_bytes, row.p50_ms, row.mean_ms,
                   static_cast<unsigned long long>(row.shm_deliveries),
                   i + 1 < shm.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"batching\": [\n");
    for (size_t i = 0; i < batching.size(); ++i) {
      const BatchRow& row = batching[i];
      std::fprintf(json,
                   "    {\"batch_max\": %zu, \"messages\": %zu, "
                   "\"msgs_per_sec\": %.0f, \"write_syscalls\": %llu}%s\n",
                   row.batch_max, row.messages, row.msgs_per_sec,
                   static_cast<unsigned long long>(row.write_syscalls),
                   i + 1 < batching.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\n  wrote BENCH_zerocopy.json\n");
  }
  return 0;
}
