// Ablation: connection scaling on the epoll reactor transport
// (src/net/poller.h, src/net/link.h).  One publisher fans a message out to
// N TCP subscriber links (in-process transport disabled, so every delivery
// crosses a real loopback socket) for N in {1, 64, 256, 1024}; each
// configuration records the process thread count at steady state, the
// p50/p99 publish-to-last-delivery latency, and — from the syscall shim
// counters (src/net/io_backend.h) — transport syscalls per delivered
// message.
//
// The claim under test: transport threads stay O(cores) no matter how
// many links exist.  The thread-per-connection transport this used to
// ablate against is gone; its historical rows are preserved in
// EXPERIMENTS.md, and the removed uring backend's rows in DESIGN.md.
//
// Prints a table and writes BENCH_connections.json.
#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/clock.h"
#include "net/io_backend.h"
#include "net/poller.h"
#include "ros/ros.h"
#include "std_msgs/String.h"

namespace {

size_t CountProcessThreads() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

bool WaitFor(const std::function<bool()>& predicate,
             uint64_t timeout_nanos = 60'000'000'000ull) {
  const uint64_t deadline = rsf::MonotonicNanos() + timeout_nanos;
  while (rsf::MonotonicNanos() < deadline) {
    if (predicate()) return true;
    rsf::SleepForNanos(200'000);
  }
  return predicate();
}

double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(
      fraction * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

struct Row {
  size_t links = 0;
  size_t threads_total = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double syscalls_per_delivery = 0.0;
};

struct Config {
  size_t payload_bytes = 4096;
  int iterations = 200;
  int warmup = 10;
  size_t only_links = 0;  // 0 = all cells
};

/// One configuration: N wire subscribers on one topic, `iterations`
/// stop-and-wait fan-outs.  Latency per iteration = publish() to the LAST
/// subscriber's callback; syscalls differenced across the measured
/// iterations via the syscall shim counters.
Row RunConfig(size_t links, const Config& config) {
  ros::NodeHandle pub_node("bench_pub");
  ros::NodeHandle sub_node("bench_sub");
  const std::string topic = "/conn_scaling_" + std::to_string(links);
  auto pub = pub_node.advertise<std_msgs::String>(topic, 10);

  std::atomic<uint64_t> delivered{0};
  ros::SubscribeOptions options;
  options.inline_dispatch = true;        // latency measured at the callback
  options.allow_intra_process = false;   // force the wire
  std::vector<ros::Subscriber> subs;
  subs.reserve(links);
  for (size_t i = 0; i < links; ++i) {
    subs.push_back(sub_node.subscribe<std_msgs::String>(
        topic, 10,
        [&](const std_msgs::String::ConstPtr&) {
          delivered.fetch_add(1, std::memory_order_relaxed);
        },
        options));
  }
  if (!WaitFor([&] { return pub.getNumSubscribers() == links; })) {
    std::fprintf(stderr, "FATAL: %zu links never all connected\n", links);
    std::exit(1);
  }

  std_msgs::String msg;
  msg.data.assign(config.payload_bytes, 'x');

  std::vector<double> latencies_us;
  latencies_us.reserve(config.iterations);
  uint64_t expected = 0;
  size_t threads_at_steady_state = 0;
  rsf::net::IoSyscallCounters counters_before{};
  for (int i = -config.warmup; i < config.iterations; ++i) {
    expected += links;
    const rsf::Stopwatch watch;
    pub.publish(msg);
    if (!WaitFor([&] {
          return delivered.load(std::memory_order_relaxed) >= expected;
        })) {
      std::fprintf(stderr, "FATAL: %zu links stalled at iteration %d\n",
                   links, i);
      std::exit(1);
    }
    if (i == 0) {
      threads_at_steady_state = CountProcessThreads();
      counters_before = rsf::net::GlobalIoCounters();
    }
    if (i >= 0) latencies_us.push_back(watch.ElapsedNanos() * 1e-3);
  }
  const rsf::net::IoSyscallCounters counters_after =
      rsf::net::GlobalIoCounters();

  const double deliveries =
      static_cast<double>(links) * static_cast<double>(config.iterations);
  const double syscalls = static_cast<double>(
      counters_after.TotalSyscalls() - counters_before.TotalSyscalls());
  return {links,
          threads_at_steady_state,
          Percentile(latencies_us, 0.50),
          Percentile(latencies_us, 0.99),
          deliveries > 0.0 ? syscalls / deliveries : 0.0};
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      config.iterations = 1000;
    } else if (arg == "--iters" && i + 1 < argc) {
      config.iterations = std::atoi(argv[++i]);
    } else if (arg == "--bytes" && i + 1 < argc) {
      config.payload_bytes = static_cast<size_t>(std::atol(argv[++i]));
    } else if (arg == "--links" && i + 1 < argc) {
      config.only_links = static_cast<size_t>(std::atol(argv[++i]));
    }
  }
  config.iterations = std::max(config.iterations, 1);
  config.payload_bytes = std::max(config.payload_bytes, size_t{1});

  std::printf(
      "=== Ablation: connection scaling, %zu-byte payload, %d iterations "
      "===\n\n",
      config.payload_bytes, config.iterations);
  std::printf("  %-8s %14s %12s %12s %18s\n", "links", "threads total",
              "p50 (us)", "p99 (us)", "syscalls/delivery");

  std::vector<Row> rows;
  for (const size_t links : {1, 64, 256, 1024}) {
    if (config.only_links != 0 && links != config.only_links) continue;
    const Row row = RunConfig(links, config);
    rows.push_back(row);
    std::printf("  %-8zu %14zu %12.1f %12.1f %18.2f\n", row.links,
                row.threads_total, row.p50_us, row.p99_us,
                row.syscalls_per_delivery);
    std::fflush(stdout);
    ros::master().Reset();
  }

  FILE* json = std::fopen("BENCH_connections.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"ablation_connections\",\n"
                 "  \"unit\": \"publish-to-last-delivery latency, "
                 "microseconds\",\n"
                 "  \"payload_bytes\": %zu,\n  \"iterations\": %d,\n"
                 "  \"results\": [\n",
                 config.payload_bytes, config.iterations);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(json,
                   "    {\"mode\": \"reactor\", \"backend\": \"epoll\", "
                   "\"links\": %zu, \"threads_total\": %zu, "
                   "\"p50_us\": %.1f, \"p99_us\": %.1f, "
                   "\"syscalls_per_delivery\": %.2f}%s\n",
                   rows[i].links,
                   rows[i].threads_total, rows[i].p50_us, rows[i].p99_us,
                   rows[i].syscalls_per_delivery,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\n  wrote BENCH_connections.json\n");
  }
  return 0;
}
