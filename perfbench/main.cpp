// Cross-process pub/sub benchmark over the public ros::NodeHandle API.
//
// One generator process (this binary) publishes a workload's topics to one
// subscriber process (this binary re-exec'd with --child).  The master
// registry is in-process, so the generator hands the child its publisher
// ports on the command line.  Every delivery is verified in the child
// against the seeded payload before it counts.  README.md defines each
// metric's start and stop stamps.
//
// A run: set up 25 times (median is setup_s), warm up, then
//   --trace 0: 12 rounds of an open-loop segment (latency, loss, CPU) and
//              a closed-loop segment (throughput, goodput); each metric is
//              taken over the samples and totals of all rounds;
//   --trace 1: an untraced then a traced open-loop segment; the traced one
//              records spans and per-layer counters.
// The last stdout line is one JSON object; perfbench/run.py wraps it.
#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/log.h"
#include "control.h"
#include "net/io_backend.h"
#include "net/poller.h"
#include "net/socket.h"
#include "payload.h"
#include "ros/ros.h"
#include "sfm/message_manager.h"
#include "sfm/shm_pool.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kCtlFd = 3;  // the child's control-block memfd
constexpr int kCmdFd = 4;  // the child's end of the command socketpair
constexpr int kSetupRepeats = 25;
constexpr uint64_t kMs = 1'000'000;
constexpr uint64_t kSec = 1'000'000'000;

// std::chrono::steady_clock is CLOCK_MONOTONIC on Linux: one machine-wide
// clock, so stamps taken in the generator and in the child compare.
uint64_t Now() { return rsf::MonotonicNanos(); }

void SleepUntil(uint64_t deadline) {
  timespec ts{static_cast<time_t>(deadline / kSec),
              static_cast<long>(deadline % kSec)};
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

template <typename M>
std::shared_ptr<M> NewMessage() {
  if constexpr (::sfm::is_sfm_message_v<M>) {
    return ::sfm::make_message<M>();
  } else {
    return std::make_shared<M>();
  }
}

// ---- process counters ----

uint64_t CpuMicros() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto micros = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000 +
           static_cast<uint64_t>(tv.tv_usec);
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

uint64_t ThreadCount() {
  uint64_t count = 0;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    ::closedir(dir);
  }
  return count;
}

/// Peak resident set of this process image.  ru_maxrss would also do, but
/// exec carries the pre-exec image's high-water mark into it, so a child
/// spawned from a large parent would report the parent's peak.
uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

Counters Capture(const std::vector<ros::Publisher>& pubs,
                 const std::vector<ros::Subscriber>& subs) {
  Counters c;
  c.cpu_us = CpuMicros();
  c.threads = ThreadCount();
  c.hwm_kb = PeakRssKb();
  const auto io = rsf::net::GlobalIoCounters();
  c.syscalls = io.TotalSyscalls();
  c.epoll_waits = io.epoll_waits;
  c.sendmsg_calls = io.sendmsg_calls;
  c.recv_calls = io.recv_calls;
  c.zerocopy_bytes = rsf::net::ZeroCopySendBytes();
  namespace shim = ros::shim;
  c.serialize_copies = shim::wire_serialize_copies.load();
  c.frame_builds = shim::frame_builds.load();
  c.descriptor_builds = shim::descriptor_builds.load();
  c.shm_zero_copy = shim::shm_zero_copy_deliveries.load();
  c.shm_fallback = shim::shm_fallback_deliveries.load();
  c.pin_evictions = shim::shm_pin_evictions.load();
  c.arena_direct = shim::arena_direct.load();
  c.deserialize_copies = shim::deserialize_copies.load();
  c.scratch_allocs = shim::scratch_allocations.load();
  c.expansions = ::sfm::gmm().Stats().expansions;
  c.fence_rejections = ::sfm::shm::GetPoolStats().gen_fence_rejections;
  for (const auto& pub : pubs) {
    const auto stats = pub.getStats();
    c.enqueued += stats.enqueued;
    c.pub_dropped += stats.dropped;
    c.intra_delivered += stats.intra_delivered;
    c.intra_zero_copy += stats.intra_zero_copy;
  }
  for (const auto& sub : subs) c.sub_dropped += sub.droppedCount();
  return c;
}

// ---- spans ----

enum SpanKind : uint8_t { kBuild, kPublish, kDeliver, kDispatch };
const char* const kSpanNames[] = {"build", "publish", "deliver", "dispatch"};

struct Span {
  uint32_t topic;
  uint32_t seq;
  uint64_t start;
  uint64_t end;
  SpanKind kind;
};

/// Nearest-rank quantile; sorts `values` in place.
double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

/// Pins every thread of process `pid` (0: this process), and every thread
/// it starts afterwards, to `cpu`.  Generator and subscriber always share
/// one CPU.  Spread over CPUs, runs fell into groups that each held for a
/// whole run or for minutes: first by whether the scheduler put the sending
/// and receiving threads on one CPU, and, with each process pinned to a CPU
/// of its own, by how the host placed those two virtual CPUs.  On one CPU
/// no message crosses CPUs.  Returns false if no thread could be pinned.
bool PinProcess(pid_t pid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  const std::string tasks =
      pid == 0 ? "/proc/self/task" : "/proc/" + std::to_string(pid) + "/task";
  bool pinned = false;
  if (DIR* dir = ::opendir(tasks.c_str())) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      pinned |= ::sched_setaffinity(std::atoi(entry->d_name), sizeof(one),
                                    &one) == 0;
    }
    ::closedir(dir);
  }
  return pinned;
}

/// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Starts a process that keeps the pinned CPU busy whenever the benchmark
/// leaves it idle: it spins at SCHED_IDLE priority, so it runs only when no
/// thread of either benchmark process is runnable, and any thread that wakes
/// preempts it at once.  The virtual CPU therefore never halts; a halted one
/// gives its physical core back to the host, and every wake-up from it is a
/// VM exit whose cost follows the host's load (README.md, Topology).  The
/// spinner is a process of its own, so its CPU time counts in neither
/// benchmark process.  Returns its pid, or -1.
pid_t StartCpuKeepalive() {
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(0);
  ::close_range(0, ~0U, 0);
  const sched_param param{};
  if (::sched_setscheduler(0, SCHED_IDLE, &param) != 0) ::_exit(1);
  volatile uint64_t spins = 0;
  for (;;) spins = spins + 1;
}

void StopProcess(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
}

bool WriteAll(int fd, const void* data, size_t length) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  while (length > 0) {
    const ssize_t n = ::write(fd, bytes, length);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes += n;
    length -= static_cast<size_t>(n);
  }
  return true;
}

/// Reads one byte from `fd`, waiting at most `timeout_ms`.
bool ReadByte(int fd, char* out, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  int ready = 0;
  do {
    ready = ::poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  return ready > 0 && ::read(fd, out, 1) == 1;
}

// ==================== subscriber process ====================

struct ChildState {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  Control control;
  std::vector<int64_t> last_seq;
  std::vector<Span> spans;
  bool have_key = false;  // the last callback's (topic, seq), for dispatch
  uint32_t key_topic = 0;
  uint32_t key_seq = 0;
  uint64_t failures_logged = 0;
};

template <typename M>
void OnDelivery(ChildState& st, uint32_t topic, const M& msg) {
  const uint64_t entry = Now();
  const TopicSpec& spec = st.workload->topics[topic];
  TopicCounters& counters = st.control.header().topics[topic];
  const uint32_t seq = msg.header.seq;
  const size_t bytes = Verify(msg, st.seed, topic, spec.name);
  if (bytes == 0 || static_cast<int64_t>(seq) <= st.last_seq[topic]) {
    counters.failed.fetch_add(1, std::memory_order_relaxed);
    if (st.failures_logged++ < 8) {
      std::fprintf(stderr, "perfbench: %s seq %u failed verification\n",
                   spec.name, seq);
    }
    return;
  }
  st.last_seq[topic] = seq;
  st.control.Record(topic, seq, entry);
  counters.bytes.fetch_add(bytes, std::memory_order_relaxed);
  counters.verified.fetch_add(1, std::memory_order_release);
  if (st.control.header().trace.load(std::memory_order_relaxed) != 0) {
    st.spans.push_back({topic, seq, entry, Now(), kDeliver});
    st.have_key = true;
    st.key_topic = topic;
    st.key_seq = seq;
  }
}

/// argv: --child <workload> <seed> <spans file> <port per topic>...
int RunChild(int argc, char** argv) {
  ChildState st;
  st.workload = argc >= 5 ? FindWorkload(argv[2]) : nullptr;
  if (st.workload == nullptr ||
      argc != 5 + static_cast<int>(st.workload->topics.size())) {
    return 2;
  }
  const WorkloadSpec& workload = *st.workload;
  st.seed = std::strtoull(argv[3], nullptr, 10);
  const std::string spans_path = argv[4];

  struct stat info{};
  if (::fstat(kCtlFd, &info) != 0) return 2;
  void* base = ::mmap(nullptr, static_cast<size_t>(info.st_size),
                      PROT_READ | PROT_WRITE, MAP_SHARED, kCtlFd, 0);
  if (base == MAP_FAILED) return 2;
  st.control = Control(base);
  st.last_seq.assign(workload.topics.size(), -1);

  // The generator's CPU pin is inherited across posix_spawn.
  std::vector<ros::Subscriber> subs;
  {
    ros::NodeHandle node("perfbench_sub");
    for (uint32_t t = 0; t < workload.topics.size(); ++t) {
      const TopicSpec& spec = workload.topics[t];
      const auto port = static_cast<uint16_t>(std::atoi(argv[5 + t]));
      VisitKind(spec.kind, [&]<typename M>(std::type_identity<M>) {
        const auto status = ros::master().RegisterPublisher(
            spec.name, M::DataType(), ros::TransportChecksum<M>(),
            ros::TopicEndpoint{"127.0.0.1", port, "perfbench_pub"});
        if (!status.ok()) std::exit(3);
        subs.push_back(node.subscribe<M>(
            spec.name, workload.queue_size,
            std::function<void(const std::shared_ptr<const M>&)>(
                [&st, t](const std::shared_ptr<const M>& msg) {
                  OnDelivery(st, t, *msg);
                })));
      });
    }

    // Commands: 'S'+k snapshots counters into slot k; 'X' (or EOF) stops.
    std::atomic<bool> stop{false};
    std::thread monitor([&] {
      char cmd = 0;
      while (ReadByte(kCmdFd, &cmd, -1) && cmd == 'S') {
        char slot = 0;
        if (!ReadByte(kCmdFd, &slot, 1000) || slot < 0 ||
            slot >= static_cast<char>(kNumSnapshots)) {
          break;
        }
        st.control.header().snapshots[static_cast<int>(slot)] =
            Capture({}, subs);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (!WriteAll(kCmdFd, "s", 1)) break;
      }
      stop.store(true);
    });

    // ros::spin(), one callback at a time so each dispatch can be timed.
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t start = Now();
      const bool ran = node.spinOnceFor(10 * kMs);
      if (ran && st.have_key) {
        st.spans.push_back({st.key_topic, st.key_seq, start, Now(), kDispatch});
      }
      st.have_key = false;
    }
    monitor.join();
    for (auto& sub : subs) sub.shutdown();
    node.shutdown();
  }

  if (!st.spans.empty()) {
    std::FILE* out = std::fopen(spans_path.c_str(), "wb");
    if (out == nullptr ||
        std::fwrite(st.spans.data(), sizeof(Span), st.spans.size(), out) !=
            st.spans.size()) {
      return 4;
    }
    std::fclose(out);
  }
  WriteAll(kCmdFd, "x", 1);
  return 0;
}

// ==================== generator process ====================

struct SendRecord {
  uint64_t due = 0;            // scheduled send time (latency start)
  uint64_t build_start = 0;    // NewMessage<M>() called
  uint64_t publish_start = 0;  // fill done, Publisher::publish called
  uint64_t publish_end = 0;    // publish returned
  uint64_t intra_entry = 0;    // co-located /scan callback entry
  uint32_t latency_class = 0;  // LatencyClass(): topic and image size
};

struct Child {
  pid_t pid = -1;
  int cmd_fd = -1;
  void* map = nullptr;
  size_t map_bytes = 0;
  Control control;
};

/// Per-topic open-loop schedule: period 1/hz with a seeded phase and a
/// seeded per-message jitter of up to half a period, so the topic
/// interleaving is a function of the seed.
class Schedule {
 public:
  Schedule(const WorkloadSpec& workload, uint64_t seed)
      : workload_(workload), seed_(seed), next_k_(workload.topics.size(), 0) {}

  /// Events of the next `duration` ns, as (offset from segment start, topic).
  std::vector<std::pair<uint64_t, uint32_t>> Segment(uint64_t duration) {
    std::vector<std::pair<uint64_t, uint32_t>> events;
    for (uint32_t t = 0; t < workload_.topics.size(); ++t) {
      const double period = 1e9 / workload_.topics[t].hz;
      const double phase = Unit(Hash(seed_, t, 0, kSaltPhase)) * period;
      for (uint64_t i = 0;; ++i) {
        const uint64_t k = next_k_[t] + i;
        const double at = phase + static_cast<double>(i) * period +
                          Unit(Hash(seed_, t, k, kSaltJitter)) * period / 2;
        if (at >= static_cast<double>(duration)) {
          next_k_[t] = k;
          break;
        }
        events.emplace_back(static_cast<uint64_t>(at), t);
      }
    }
    std::sort(events.begin(), events.end());
    return events;
  }

 private:
  const WorkloadSpec& workload_;
  uint64_t seed_;
  std::vector<uint64_t> next_k_;
};

/// One open-loop segment: its seq range, samples and both processes'
/// counters at its ends.
struct OpenSegment {
  std::vector<uint32_t> begin;  // per topic
  std::vector<uint32_t> end;
  uint64_t published = 0;
  uint64_t delivered = 0;
  std::vector<double> latency_us;    // scheduled -> callback entry
  std::vector<double> transport_us;  // publish return -> callback entry
  std::vector<double> build_us;      // NewMessage + fill
  std::vector<double> publish_us;    // Publisher::publish
  std::vector<double> intra_us;      // publish call -> co-located callback
  std::vector<double> lag_us;        // generator wake-up - scheduled time
  uint64_t intra_published = 0;
  uint64_t intra_delivered = 0;
  std::map<std::string, std::vector<double>> topic_latency_us;
  std::map<std::string, std::vector<double>> topic_transport_us;
  std::map<uint32_t, std::vector<double>> class_latency_us;
  Counters pub0, pub1, sub0, sub1;
};

/// One closed-loop segment.
struct ClosedSegment {
  uint64_t published = 0;
  uint64_t delivered = 0;  // verified when the segment's time was up
  uint64_t bytes = 0;
  uint64_t missing = 0;    // still undelivered after the drain
  double seconds = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
  uint64_t samples;
};

class Generator {
 public:
  Generator(const WorkloadSpec& workload, uint64_t seed, bool trace,
            double seconds, std::vector<int> cpus, pid_t keepalive,
            std::string exe, std::string out_dir)
      : w_(workload),
        seed_(seed),
        trace_(trace),
        seconds_(seconds),
        cpus_(std::move(cpus)),
        keepalive_(keepalive),
        exe_(std::move(exe)),
        out_dir_(std::move(out_dir)),
        frame_(MakeFrame(seed)),
        schedule_(workload, seed) {
    // The stamp rings must hold the longest open-loop segment.
    const double longest =
        std::max(kWarmupShare, trace ? kTracedShare : kOpenShare / kRounds) *
        seconds;
    for (const auto& topic : w_.topics) {
      capacity_ = std::max<uint64_t>(
          capacity_, static_cast<uint64_t>(topic.hz * longest * 1.2) + 4096);
    }
  }

  int Run();

 private:
  // Shares of --seconds.  Untraced: kRounds rounds of an open-loop then a
  // closed-loop segment, so both phases sample the whole run and a slow
  // stretch of the host falls on both.  Traced: an untraced then a traced
  // open-loop segment.
  static constexpr int kRounds = 12;
  static constexpr double kWarmupShare = 0.05;
  static constexpr double kOpenShare = 0.6;
  static constexpr double kClosedShare = 0.35;
  static constexpr double kTracedShare = 0.45;

  /// A latency class: the topic, and for images the size drawn.
  uint32_t LatencyClass(uint32_t topic, uint32_t seq) const {
    const uint32_t size = w_.topics[topic].kind == Kind::kImage
                              ? ImageClassIndex(seed_, topic, seq)
                              : 0;
    return topic * static_cast<uint32_t>(kImageClasses.size()) + size;
  }
  /// A latency class's share of the workload's nominal message mix.
  double ClassShare(uint32_t cls) const {
    double total_hz = 0;
    for (const auto& topic : w_.topics) total_hz += topic.hz;
    const auto& topic = w_.topics[cls / kImageClasses.size()];
    const double share = topic.hz / total_hz;
    return topic.kind == Kind::kImage
               ? share * kImageClasses[cls % kImageClasses.size()].weight
               : share;
  }
  /// Each latency class's median, averaged with the class's share of the
  /// nominal mix as its weight.  The classes differ in latency by up to
  /// 70x, so the median of their mixture lands on the steep flank of one
  /// class: there a one-point change in the seeded class shares moved it by
  /// 3-4 %, and the share noise of a 150-message round by up to 15 %.  Each
  /// class's own median sits where its samples are densest.
  double MixLatency(std::map<uint32_t, std::vector<double>>& classes) const {
    double sum = 0;
    double shares = 0;
    for (auto& [cls, values] : classes) {
      sum += ClassShare(cls) * Quantile(values, 0.5);
      shares += ClassShare(cls);
    }
    return shares == 0 ? 0.0 : sum / shares;
  }
  std::string ClassLabel(uint32_t cls) const {
    const uint32_t topic = cls / kImageClasses.size();
    std::string label = w_.topics[topic].name;
    if (w_.topics[topic].kind == Kind::kImage) {
      const ImageClass& image = kImageClasses[cls % kImageClasses.size()];
      label += ":" + std::to_string(image.width * image.height * 3) + "B";
    }
    return label;
  }
  /// Moves generator, subscriber and spinner together to `cpu`.  Each untraced
  /// round runs on the next allowed CPU: the speed the host gave a virtual
  /// CPU held for tens of seconds and differed from CPU to CPU, so a run
  /// kept on one CPU read that CPU's spell (README.md, Topology).
  void MoveTo(int cpu) {
    PinProcess(0, cpu);
    if (child_.pid > 0) PinProcess(child_.pid, cpu);
    if (keepalive_ > 0) PinProcess(keepalive_, cpu);
  }
  uint32_t NumTopics() const { return static_cast<uint32_t>(w_.topics.size()); }
  TopicCounters& Topic(uint32_t t) { return child_.control.header().topics[t]; }
  uint64_t Verified() {
    uint64_t sum = 0;
    for (uint32_t t = 0; t < NumTopics(); ++t) {
      sum += Topic(t).verified.load(std::memory_order_acquire);
    }
    return sum;
  }
  SendRecord& Record(uint32_t topic, uint32_t seq) {
    return records_[topic][seq % capacity_];
  }

  double SetUp(bool keep);
  bool SpawnChild(int index);
  bool StopChild();
  void TearDown();
  void Send(uint32_t topic, uint64_t due);
  void TakeSnapshot(perfbench::Snapshot slot, Counters* pub, Counters* sub);
  std::vector<uint32_t> RunOpenLoop(double seconds, std::vector<double>* lags);
  bool DrainOpen(const std::vector<uint32_t>& begin, uint64_t timeout);
  OpenSegment MeasureOpen(double seconds, bool traced);
  ClosedSegment RunClosedLoop(double seconds);
  std::vector<Span> StopAndCollectSpans();
  void AddPerLayer(const OpenSegment& open, const OpenSegment& untraced,
                   const std::vector<Span>& child_spans);
  void Fail(const char* what) {
    std::fprintf(stderr, "perfbench: %s\n", what);
    correct_ = false;
  }
  void Add(std::string name, double value, const char* unit,
           uint64_t samples) {
    metrics_.push_back({std::move(name), value, unit, samples});
  }

  const WorkloadSpec& w_;
  const uint64_t seed_;
  const bool trace_;
  const double seconds_;
  const std::vector<int> cpus_;  // empty: not pinned
  const pid_t keepalive_;        // the CPU spinner, or -1
  const std::string exe_;
  const std::string out_dir_;
  const std::vector<uint8_t> frame_;
  Schedule schedule_;
  uint64_t capacity_ = 0;

  std::unique_ptr<ros::NodeHandle> node_;
  std::unique_ptr<ros::NodeHandle> intra_node_;
  std::vector<ros::Publisher> pubs_;
  ros::Subscriber intra_sub_;
  std::vector<uint32_t> next_seq_;
  std::vector<std::vector<SendRecord>> records_;
  uint64_t intra_verified_ = 0;
  uint64_t intra_failed_ = 0;
  Child child_;
  int setups_ = 0;
  std::string spans_path_;

  bool correct_ = true;
  std::vector<pid_t> pids_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  // Pool high-water marks, sampled during the traced segment.
  size_t pool_bytes_max_ = 0;
  size_t shm_mapped_max_ = 0;
  size_t shm_live_max_ = 0;
  uint64_t last_pool_sample_ = 0;
  bool sample_pools_ = false;
  uint64_t closed_picks_ = 0;
};

void Generator::Send(uint32_t topic, uint64_t due) {
  const uint32_t seq = next_seq_[topic]++;
  const FillContext ctx{seed_, topic, w_.topics[topic].name, frame_.data()};
  VisitKind(w_.topics[topic].kind, [&]<typename M>(std::type_identity<M>) {
    SendRecord& record = Record(topic, seq);
    record.intra_entry = 0;
    record.due = due;
    record.latency_class = LatencyClass(topic, seq);
    record.build_start = Now();
    auto msg = NewMessage<M>();
    Fill(*msg, ctx, seq, due);
    record.publish_start = Now();
    pubs_[topic].publish(std::shared_ptr<const M>(std::move(msg)));
    record.publish_end = Now();
  });
  if (sample_pools_ && Now() - last_pool_sample_ > 10 * kMs) {
    last_pool_sample_ = Now();
    pool_bytes_max_ = std::max(pool_bytes_max_, ::sfm::ArenaPoolBytes());
    const auto pool = ::sfm::shm::GetPoolStats();
    shm_mapped_max_ = std::max(shm_mapped_max_, pool.mapped_bytes);
    shm_live_max_ = std::max(shm_live_max_, pool.live_blocks);
  }
}

bool Generator::SpawnChild(int index) {
  const size_t bytes = Control::Bytes(capacity_);
  int memfd = ::memfd_create("perfbench-control", MFD_CLOEXEC);
  int sv[2] = {-1, -1};
  if (memfd < 0 || ::ftruncate(memfd, static_cast<off_t>(bytes)) != 0 ||
      ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    return false;
  }
  // Keep the fds clear of 3/4, where the child expects them: dup2 onto
  // the same number would leave close-on-exec set.
  const int ctl_fd = ::fcntl(memfd, F_DUPFD_CLOEXEC, 10);
  const int sub_fd = ::fcntl(sv[1], F_DUPFD_CLOEXEC, 10);
  ::close(memfd);
  ::close(sv[1]);
  child_.cmd_fd = sv[0];
  void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     ctl_fd, 0);
  if (map == MAP_FAILED) return false;
  auto* header = new (map) ControlHeader();
  header->capacity = capacity_;
  child_.map = map;
  child_.map_bytes = bytes;
  child_.control = Control(map);

  spans_path_ = out_dir_ + "/child-" + std::to_string(::getpid()) + "-" +
                std::to_string(index) + ".spans";
  std::vector<std::string> args = {exe_, "--child", w_.name,
                                   std::to_string(seed_), spans_path_};
  for (const auto& topic : w_.topics) {
    const auto endpoints = ros::master().PublishersOf(topic.name);
    if (endpoints.size() != 1) return false;
    args.push_back(std::to_string(endpoints[0].port));
  }
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, ctl_fd, kCtlFd);
  posix_spawn_file_actions_adddup2(&actions, sub_fd, kCmdFd);
  posix_spawn_file_actions_addclosefrom_np(&actions, kCmdFd + 1);
  const int rc = ::posix_spawn(&child_.pid, exe_.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(ctl_fd);
  ::close(sub_fd);
  if (rc != 0) {
    child_.pid = -1;
    return false;
  }
  pids_.push_back(child_.pid);
  return true;
}

/// Asks the child to exit (it writes its spans first) and reaps it; false
/// if it did not acknowledge or did not exit 0.
bool Generator::StopChild() {
  if (child_.pid < 0) return true;
  char ack = 0;
  const bool acked = WriteAll(child_.cmd_fd, "X", 1) &&
                     ReadByte(child_.cmd_fd, &ack, 20000) && ack == 'x';
  if (!acked) ::kill(child_.pid, SIGKILL);
  int status = 0;
  while (::waitpid(child_.pid, &status, 0) < 0 && errno == EINTR) {
  }
  child_.pid = -1;
  ::close(child_.cmd_fd);
  child_.cmd_fd = -1;
  return acked && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void Generator::TearDown() {
  if (!StopChild()) Fail("subscriber process did not exit cleanly");
  ::unlink(spans_path_.c_str());
  if (child_.map != nullptr) ::munmap(child_.map, child_.map_bytes);
  child_.map = nullptr;
  intra_sub_.shutdown();
  pubs_.clear();
  intra_node_.reset();
  node_.reset();
}

/// One set-up: from before advertise and spawn to the first verified
/// delivery on every link.  Returns seconds, or a negative value on failure.
double Generator::SetUp(bool keep) {
  const uint64_t start = Now();
  node_ = std::make_unique<ros::NodeHandle>("perfbench_pub");
  next_seq_.assign(NumTopics(), 0);
  records_.assign(NumTopics(), std::vector<SendRecord>(capacity_));
  intra_verified_ = 0;
  for (const auto& topic : w_.topics) {
    VisitKind(topic.kind, [&]<typename M>(std::type_identity<M>) {
      pubs_.push_back(node_->advertise<M>(topic.name, w_.queue_size));
    });
  }
  uint32_t scan_topic = NumTopics();
  if (w_.colocated_scan) {
    for (uint32_t t = 0; t < NumTopics(); ++t) {
      if (w_.topics[t].kind == Kind::kScan) scan_topic = t;
    }
    intra_node_ = std::make_unique<ros::NodeHandle>("perfbench_intra");
    ros::SubscribeOptions options;
    options.inline_dispatch = true;  // runs inside publish, on this thread
    intra_sub_ = intra_node_->subscribe<Scan>(
        w_.topics[scan_topic].name, w_.queue_size,
        std::function<void(const std::shared_ptr<const Scan>&)>(
            [this, scan_topic](const std::shared_ptr<const Scan>& msg) {
              const uint64_t entry = Now();
              if (Verify(*msg, seed_, scan_topic,
                         w_.topics[scan_topic].name) == 0) {
                ++intra_failed_;
                return;
              }
              ++intra_verified_;
              Record(scan_topic, msg->header.seq).intra_entry = entry;
            }),
        options);
  }
  if (!SpawnChild(setups_++)) {
    Fail("cannot spawn the subscriber process");
    return -1;
  }

  // Probe every link until one message on it verified.  A probe goes out
  // once the link is up and is repeated only if it seems lost.
  std::vector<uint64_t> last_probe(NumTopics(), 0);
  const uint64_t deadline = start + 30 * kSec;
  bool all = false;
  while (!all && Now() < deadline) {
    all = true;
    for (uint32_t t = 0; t < NumTopics(); ++t) {
      const bool intra_pending = t == scan_topic && intra_verified_ == 0;
      if (Topic(t).verified.load(std::memory_order_acquire) > 0 &&
          !intra_pending) {
        continue;
      }
      all = false;
      const size_t links = t == scan_topic ? 2 : 1;
      if (pubs_[t].getNumSubscribers() >= links &&
          Now() - last_probe[t] > 20 * kMs) {
        Send(t, Now());
        last_probe[t] = Now();
      }
    }
    if (!all) rsf::SleepForNanos(100'000);
  }
  const uint64_t elapsed = Now() - start;
  if (!all) {
    Fail("set-up timed out");
    return -1;
  }
  if (!keep) TearDown();
  return static_cast<double>(elapsed) / 1e9;
}

/// Counters of both processes at one moment: the child's taken on
/// command, this process's right after.
void Generator::TakeSnapshot(perfbench::Snapshot slot, Counters* pub,
                             Counters* sub) {
  const char cmd[2] = {'S', static_cast<char>(slot)};
  char ack = 0;
  if (!WriteAll(child_.cmd_fd, cmd, 2) ||
      !ReadByte(child_.cmd_fd, &ack, 10000) || ack != 's') {
    Fail("subscriber did not answer a snapshot");
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
  *sub = child_.control.header().snapshots[slot];
  *pub = Capture(pubs_, {});
}

/// Publishes one open-loop segment; returns each topic's first seq in it.
std::vector<uint32_t> Generator::RunOpenLoop(double seconds,
                                             std::vector<double>* lags) {
  const std::vector<uint32_t> begin = next_seq_;
  const auto events = schedule_.Segment(static_cast<uint64_t>(seconds * 1e9));
  const uint64_t base = Now() + kMs;
  for (const auto& [offset, topic] : events) {
    const uint64_t due = base + offset;
    SleepUntil(due);
    if (lags != nullptr) lags->push_back(static_cast<double>(Now() - due) / 1e3);
    Send(topic, due);
  }
  return begin;
}

/// Waits until every message published since `begin` has been verified,
/// or `timeout` passes (the rest count as lost).
bool Generator::DrainOpen(const std::vector<uint32_t>& begin,
                          uint64_t timeout) {
  const uint64_t deadline = Now() + timeout;
  for (uint32_t t = 0; t < NumTopics(); ++t) {
    for (uint32_t seq = begin[t]; seq < next_seq_[t]; ++seq) {
      while (child_.control.EntryOf(t, seq) == 0) {
        if (Now() >= deadline) return false;
        rsf::SleepForNanos(200'000);
      }
    }
  }
  return true;
}

OpenSegment Generator::MeasureOpen(double seconds, bool traced) {
  OpenSegment seg;
  child_.control.header().trace.store(traced ? 1 : 0);
  sample_pools_ = traced;
  TakeSnapshot(kSnapOpenBegin, &seg.pub0, &seg.sub0);
  seg.begin = RunOpenLoop(seconds, &seg.lag_us);
  DrainOpen(seg.begin, 2 * kSec);
  TakeSnapshot(kSnapOpenEnd, &seg.pub1, &seg.sub1);
  child_.control.header().trace.store(0);
  sample_pools_ = false;
  seg.end = next_seq_;
  for (uint32_t t = 0; t < NumTopics(); ++t) {
    auto& topic_latency = seg.topic_latency_us[w_.topics[t].name];
    auto& topic_transport = seg.topic_transport_us[w_.topics[t].name];
    const bool intra = w_.colocated_scan && w_.topics[t].kind == Kind::kScan;
    for (uint32_t seq = seg.begin[t]; seq < seg.end[t]; ++seq) {
      const SendRecord& r = Record(t, seq);
      ++seg.published;
      seg.build_us.push_back((r.publish_start - r.build_start) / 1e3);
      seg.publish_us.push_back((r.publish_end - r.publish_start) / 1e3);
      if (intra) {
        ++seg.intra_published;
        if (r.intra_entry != 0) {
          ++seg.intra_delivered;
          seg.intra_us.push_back(
              static_cast<int64_t>(r.intra_entry - r.publish_start) / 1e3);
        }
      }
      const uint64_t entry = child_.control.EntryOf(t, seq);
      if (entry == 0) continue;
      ++seg.delivered;
      // Signed: on the shm tier a callback can start before publish
      // returns to the generator.
      const double latency = static_cast<int64_t>(entry - r.due) / 1e3;
      const double transport =
          static_cast<int64_t>(entry - r.publish_end) / 1e3;
      seg.latency_us.push_back(latency);
      seg.transport_us.push_back(transport);
      topic_latency.push_back(latency);
      topic_transport.push_back(transport);
      seg.class_latency_us[r.latency_class].push_back(latency);
    }
  }
  return seg;
}

/// Closed loop: keeps `window` messages undelivered, fed back from the
/// subscriber's verified count, so no drop-oldest queue ever fills.
/// Topics are drawn by a seeded pick weighted by their nominal rates.
ClosedSegment Generator::RunClosedLoop(double seconds) {
  ClosedSegment seg;
  double total_hz = 0;
  for (const auto& topic : w_.topics) total_hz += topic.hz;
  uint64_t base_bytes = 0;
  for (uint32_t t = 0; t < NumTopics(); ++t) {
    base_bytes += Topic(t).bytes.load(std::memory_order_relaxed);
  }
  const uint64_t base = Verified();
  const uint64_t start = Now();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  while (Now() < end) {
    if (seg.published - (Verified() - base) >= w_.window) {
      ::sched_yield();
      continue;
    }
    double u = Unit(Hash(seed_, 0, closed_picks_++, kSaltPick)) * total_hz;
    uint32_t topic = 0;
    while (topic + 1 < NumTopics() && u >= w_.topics[topic].hz) {
      u -= w_.topics[topic].hz;
      ++topic;
    }
    Send(topic, Now());
    ++seg.published;
  }
  const uint64_t stop = Now();
  seg.delivered = Verified() - base;
  for (uint32_t t = 0; t < NumTopics(); ++t) {
    seg.bytes += Topic(t).bytes.load(std::memory_order_relaxed);
  }
  seg.bytes -= base_bytes;
  seg.seconds = static_cast<double>(stop - start) / 1e9;
  const uint64_t deadline = Now() + 3 * kSec;
  while (Verified() - base < seg.published && Now() < deadline) {
    rsf::SleepForNanos(200'000);
  }
  seg.missing = seg.published - (Verified() - base);
  return seg;
}

/// Stops the child and returns the spans it wrote.
std::vector<Span> Generator::StopAndCollectSpans() {
  if (!StopChild()) Fail("subscriber process did not exit cleanly");
  std::vector<Span> spans;
  std::ifstream in(spans_path_, std::ios::binary);
  Span span{};
  while (in.read(reinterpret_cast<char*>(&span), sizeof(span))) {
    spans.push_back(span);
  }
  return spans;
}

int Generator::Run() {
  // Set-up, repeated; the last one stays up for the measured phases.
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double s = SetUp(i + 1 == kSetupRepeats);
    if (s < 0) break;
    setups.push_back(s);
  }
  if (!correct_ || setups.size() != kSetupRepeats) {
    TearDown();
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                "\"metrics\": {}}\n");
    return 1;
  }

  std::map<std::string, std::string> config;
  config["io_backend"] =
      rsf::net::IoBackendKindName(rsf::net::ResolveIoBackendKind());
  config["reactor_threads"] =
      std::to_string(rsf::net::Reactor::Get().NumLoops());
  config["publish_threads"] = "1";
  config["connections"] = std::to_string(NumTopics());
  config["pinned"] =
      cpus_.empty() ? "no"
                    : "both processes on one cpu, the next of " +
                          std::to_string(cpus_.size()) + " each round";
  config["cpu_keepalive"] = keepalive_ > 0 ? "sched_idle spinner" : "no";
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "RSF_", 4) == 0) {
      if (const char* eq = std::strchr(*env, '=')) {
        config["env." + std::string(*env, static_cast<size_t>(eq - *env))] =
            eq + 1;
      }
    }
  }

  if (!DrainOpen(RunOpenLoop(kWarmupShare * seconds_, nullptr), 2 * kSec)) {
    Fail("warm-up did not drain");
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<OpenSegment> opens;
  if (trace_) {
    opens.push_back(MeasureOpen(kTracedShare * seconds_, false));
    opens.push_back(MeasureOpen(kTracedShare * seconds_, true));
  } else {
    // Samples and totals are pooled over the rounds; the rounds only
    // interleave the two phases, so both sample the whole run.
    std::map<uint32_t, std::vector<double>> class_latency;
    std::vector<double> latency, round_latency, round_cpu, round_throughput;
    uint64_t published = 0;
    uint64_t delivered = 0;
    uint64_t cpu_us = 0;
    uint64_t closed_delivered = 0;
    uint64_t closed_bytes = 0;
    double closed_seconds = 0;
    for (int round = 0; round < kRounds; ++round) {
      if (!cpus_.empty()) MoveTo(cpus_[round % cpus_.size()]);
      OpenSegment open = MeasureOpen(kOpenShare / kRounds * seconds_, false);
      published += open.published;
      delivered += open.delivered;
      const uint64_t open_cpu_us = (open.pub1.cpu_us - open.pub0.cpu_us) +
                                   (open.sub1.cpu_us - open.sub0.cpu_us);
      cpu_us += open_cpu_us;
      round_cpu.push_back(open.delivered == 0
                              ? 0.0
                              : static_cast<double>(open_cpu_us) /
                                    open.delivered);
      round_latency.push_back(MixLatency(open.class_latency_us));
      for (const auto& [cls, values] : open.class_latency_us) {
        auto& pooled = class_latency[cls];
        pooled.insert(pooled.end(), values.begin(), values.end());
      }
      latency.insert(latency.end(), open.latency_us.begin(),
                     open.latency_us.end());
      opens.push_back(std::move(open));
      const ClosedSegment closed =
          RunClosedLoop(kClosedShare / kRounds * seconds_);
      attempted += closed.published;
      failed += closed.missing;
      closed_delivered += closed.delivered;
      closed_bytes += closed.bytes;
      closed_seconds += closed.seconds;
      round_throughput.push_back(closed.delivered / closed.seconds);
    }
    const auto row = [&](const char* name, const std::vector<double>& v) {
      std::string line = std::string("rounds ") + name;
      for (double x : v) line += " " + std::to_string(x);
      notes_.push_back(line);
    };
    row("latency_p50_mix_us", round_latency);
    row("cpu_us_per_msg", round_cpu);
    row("throughput_msgs_per_s", round_throughput);
    for (auto& [cls, values] : class_latency) {
      char line[256];
      std::snprintf(line, sizeof(line), "class %s latency_p50_us %.1f n %zu",
                    ClassLabel(cls).c_str(), Quantile(values, 0.5),
                    values.size());
      notes_.push_back(line);
    }
    const uint64_t closed_msgs = attempted;
    Add("setup_s", Median(setups), "s", setups.size());
    Add("latency_p50_mix_us", MixLatency(class_latency), "us", delivered);
    Add("throughput_msgs_per_s", closed_delivered / closed_seconds, "1/s",
        closed_msgs);
    Add("goodput_MBps", closed_bytes / closed_seconds / 1e6, "MB/s",
        closed_msgs);
    Add("delivery_ratio",
        published == 0 ? 0.0 : static_cast<double>(delivered) / published,
        "ratio", published);
    Add("cpu_us_per_msg",
        delivered == 0 ? 0.0 : static_cast<double>(cpu_us) / delivered, "us",
        delivered);
    // Printed, not part of the result: run to run, host noise moves these
    // by more than any bound a regression check could use (README.md).
    char line[160];
    std::snprintf(line, sizeof(line), "info latency_p99_us = %.6g us (n=%llu)",
                  Quantile(latency, 0.99),
                  static_cast<unsigned long long>(delivered));
    notes_.push_back(line);
    std::snprintf(line, sizeof(line), "info peak_rss_MB = %.6g MB (n=2)",
                  (opens.front().pub1.hwm_kb + opens.front().sub1.hwm_kb) /
                      1024.0);
    notes_.push_back(line);
  }
  for (const auto& open : opens) {
    attempted += open.published;
    failed += (open.published - open.delivered) +
              (open.intra_published - open.intra_delivered);
  }

  // Per-topic rows, pooled over the open-loop segments (summary only; the
  // 4 KB /scan row is the one README.md compares with older numbers).
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      per_topic;
  for (const auto& open : opens) {
    for (const auto& [name, values] : open.topic_latency_us) {
      auto& [latency, transport] = per_topic[name];
      latency.insert(latency.end(), values.begin(), values.end());
      const auto& tr = open.topic_transport_us.at(name);
      transport.insert(transport.end(), tr.begin(), tr.end());
    }
  }
  for (auto& [name, pair] : per_topic) {
    auto& [latency, transport] = pair;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "topic %s latency_p50_us %.1f latency_p99_us %.1f "
                  "transport_p50_us %.1f n %zu",
                  name.c_str(), Quantile(latency, 0.5),
                  Quantile(latency, 0.99), Quantile(transport, 0.5),
                  latency.size());
    notes_.push_back(line);
  }

  uint64_t verify_failures = intra_failed_;
  for (uint32_t t = 0; t < NumTopics(); ++t) {
    verify_failures += Topic(t).failed.load();
  }
  if (verify_failures > 0) Fail("payload verification failed");

  std::vector<Span> child_spans = StopAndCollectSpans();
  if (trace_) AddPerLayer(opens[1], opens[0], child_spans);
  TearDown();

  // Run hygiene: every arena block this process handed out is back.
  bool pool_clean = false;
  const uint64_t deadline = Now() + 2 * kSec;
  while (true) {
    pool_clean = true;
    for (const auto& cls : ::sfm::ArenaPoolSnapshot()) {
      if (cls.live != 0) pool_clean = false;
    }
    if (pool_clean || Now() >= deadline) break;
    rsf::SleepForNanos(10 * kMs);
  }
  if (!pool_clean) Fail("arena blocks still live after teardown");

  for (const auto& note : notes_) std::printf("%s\n", note.c_str());
  for (const auto& m : metrics_) {
    std::printf("metric %s = %.6g %s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit, static_cast<unsigned long long>(m.samples));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const double value =
        std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(), value,
                metrics_[i].unit);
  }
  std::printf("}, \"config\": {");
  size_t index = 0;
  for (const auto& [key, value] : config) {
    std::printf("%s\"%s\": \"%s\"", index++ == 0 ? "" : ", ", key.c_str(),
                value.c_str());
  }
  std::printf("}, \"pids\": [%d", static_cast<int>(::getpid()));
  for (pid_t pid : pids_) std::printf(", %d", static_cast<int>(pid));
  std::printf("]}\n");
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

/// Per-layer metrics of the traced segment `open`; `untraced` is the
/// segment before it, the reference for the tracing overhead.
void Generator::AddPerLayer(const OpenSegment& open,
                            const OpenSegment& untraced,
                            const std::vector<Span>& child_spans) {
  const uint64_t msgs = open.published;
  const auto per = [](uint64_t delta, uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(delta) / static_cast<double>(n);
  };
  const auto q = [](std::vector<double> values, double quantile) {
    return Quantile(values, quantile);
  };
  const Counters& p0 = open.pub0;
  const Counters& p1 = open.pub1;
  const Counters& s0 = open.sub0;
  const Counters& s1 = open.sub1;

  std::map<std::pair<uint32_t, uint32_t>, uint64_t> deliver_ns;
  std::vector<double> deliver_us;
  for (const Span& span : child_spans) {
    if (span.kind == kDeliver) {
      deliver_ns[{span.topic, span.seq}] = span.end - span.start;
      deliver_us.push_back((span.end - span.start) / 1e3);
    }
  }

  Add("latency_p99_us", q(open.latency_us, 0.99), "us",
      open.latency_us.size());
  Add("gen.lag_us_p99", q(open.lag_us, 0.99), "us", open.lag_us.size());
  Add("sfm.build_us_p50", q(open.build_us, 0.5), "us", msgs);
  Add("sfm.build_us_p99", q(open.build_us, 0.99), "us", msgs);
  Add("sfm.expansions_per_msg", per(p1.expansions - p0.expansions, msgs),
      "count", msgs);
  Add("sfm.pool_MB", pool_bytes_max_ / 1e6, "MB", 1);
  const uint64_t zc = p1.shm_zero_copy - p0.shm_zero_copy;
  const uint64_t fb = p1.shm_fallback - p0.shm_fallback;
  Add("shm.zero_copy_ratio", per(zc, zc + fb), "ratio", zc + fb);
  Add("shm.mapped_MB", shm_mapped_max_ / 1e6, "MB", 1);
  Add("shm.live_blocks_max", static_cast<double>(shm_live_max_), "count", 1);
  Add("shm.fence_rejections",
      static_cast<double>(p1.fence_rejections - p0.fence_rejections), "count",
      msgs);
  Add("shm.pin_evictions",
      static_cast<double>(p1.pin_evictions - p0.pin_evictions), "count",
      msgs);
  Add("publish.call_us_p50", q(open.publish_us, 0.5), "us", msgs);
  Add("publish.call_us_p99", q(open.publish_us, 0.99), "us", msgs);
  Add("publish.serialize_copies_per_msg",
      per(p1.serialize_copies - p0.serialize_copies, msgs), "count", msgs);
  Add("publish.frame_builds_per_msg",
      per(p1.frame_builds - p0.frame_builds, msgs), "count", msgs);
  Add("publish.descriptor_builds_per_msg",
      per(p1.descriptor_builds - p0.descriptor_builds, msgs), "count", msgs);
  Add("publish.dropped_ratio",
      per(p1.pub_dropped - p0.pub_dropped, p1.enqueued - p0.enqueued),
      "ratio", p1.enqueued - p0.enqueued);
  Add("subscribe.transport_us_p50", q(open.transport_us, 0.5), "us",
      open.transport_us.size());
  Add("subscribe.transport_us_p99", q(open.transport_us, 0.99), "us",
      open.transport_us.size());
  Add("subscribe.deliver_us_p50", q(deliver_us, 0.5), "us", deliver_us.size());
  Add("subscribe.arena_direct_per_msg",
      per(s1.arena_direct - s0.arena_direct, msgs), "count", msgs);
  Add("subscribe.deserialize_copies_per_msg",
      per(s1.deserialize_copies - s0.deserialize_copies, msgs), "count",
      msgs);
  Add("subscribe.scratch_allocs_per_msg",
      per(s1.scratch_allocs - s0.scratch_allocs, msgs), "count", msgs);
  Add("subscribe.dropped_ratio", per(s1.sub_dropped - s0.sub_dropped, msgs),
      "ratio", msgs);
  Add("intra.latency_us_p50", q(open.intra_us, 0.5), "us",
      open.intra_us.size());
  Add("intra.zero_copy_ratio",
      per(p1.intra_zero_copy - p0.intra_zero_copy,
          p1.intra_delivered - p0.intra_delivered),
      "ratio", p1.intra_delivered - p0.intra_delivered);
  Add("net.pub.syscalls_per_msg", per(p1.syscalls - p0.syscalls, msgs),
      "count", msgs);
  Add("net.sub.syscalls_per_msg", per(s1.syscalls - s0.syscalls, msgs),
      "count", msgs);
  Add("net.sub.epoll_waits_per_msg", per(s1.epoll_waits - s0.epoll_waits, msgs),
      "count", msgs);
  Add("net.pub.sendmsg_per_msg", per(p1.sendmsg_calls - p0.sendmsg_calls, msgs),
      "count", msgs);
  Add("net.sub.recv_per_msg", per(s1.recv_calls - s0.recv_calls, msgs),
      "count", msgs);
  Add("net.zerocopy_MB", (p1.zerocopy_bytes - p0.zerocopy_bytes) / 1e6, "MB",
      msgs);
  Add("proc.pub.cpu_us_per_msg", per(p1.cpu_us - p0.cpu_us, msgs), "us",
      msgs);
  Add("proc.sub.cpu_us_per_msg", per(s1.cpu_us - s0.cpu_us, msgs), "us",
      msgs);
  Add("proc.peak_rss_MB", (p1.hwm_kb + s1.hwm_kb) / 1024.0, "MB", 2);
  Add("proc.pub.threads", static_cast<double>(p1.threads), "count", 1);
  Add("proc.sub.threads", static_cast<double>(s1.threads), "count", 1);
  const double traced_p50 = q(open.latency_us, 0.5);
  const double untraced_p50 = q(untraced.latency_us, 0.5);
  Add("trace.overhead_pct",
      untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0.0, "%",
      open.latency_us.size());

  // The joined trace: generator spans (build, publish) and subscriber
  // spans (deliver, dispatch), keyed by (topic, seq), with self times.  A
  // dispatch span is one spinOnceFor() that ran a callback; its self time
  // is the wait for work plus the queue hand-off.
  const std::string path = out_dir_ + "/trace-" + w_.name + "-seed" +
                           std::to_string(seed_) + ".tsv";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "topic\tseq\tspan\tstart_ns\tend_ns\tself_ns\n");
  const auto write = [&](uint32_t topic, uint32_t seq, SpanKind kind,
                         uint64_t start, uint64_t end, uint64_t self) {
    std::fprintf(out, "%s\t%u\t%s\t%llu\t%llu\t%llu\n", w_.topics[topic].name,
                 seq, kSpanNames[kind], static_cast<unsigned long long>(start),
                 static_cast<unsigned long long>(end),
                 static_cast<unsigned long long>(self));
  };
  for (uint32_t t = 0; t < NumTopics(); ++t) {
    for (uint32_t seq = open.begin[t]; seq < open.end[t]; ++seq) {
      const SendRecord& r = Record(t, seq);
      write(t, seq, kBuild, r.build_start, r.publish_start,
            r.publish_start - r.build_start);
      write(t, seq, kPublish, r.publish_start, r.publish_end,
            r.publish_end - r.publish_start);
    }
  }
  for (const Span& span : child_spans) {
    const auto it = deliver_ns.find({span.topic, span.seq});
    const uint64_t nested =
        span.kind == kDispatch && it != deliver_ns.end() ? it->second : 0;
    write(span.topic, span.seq, span.kind, span.start, span.end,
          span.end - span.start - nested);
  }
  std::fclose(out);
  notes_.push_back("trace written to " + path);
}

int Usage() {
  std::fprintf(stderr,
               "usage: rsf_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  rsf::SetLogLevel(rsf::LogLevel::kError);
  if (argc >= 2 && std::strcmp(argv[1], "--child") == 0) {
    return RunChild(argc, argv);
  }
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = FindWorkload(value);
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value) != 0;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || seconds <= 0) return Usage();

  // The shm tier's opt-in; the other workloads run what a user gets by
  // default.  The child inherits the environment.
  if (workload->shm) {
    ::setenv("RSF_TRANSPORT_SHM", "1", 1);
  } else {
    ::unsetenv("RSF_TRANSPORT_SHM");
  }
  char exe[4096] = {0};
  if (::readlink("/proc/self/exe", exe, sizeof(exe) - 1) <= 0) return 1;
  ::signal(SIGPIPE, SIG_IGN);
  // The generator sleeps to each scheduled send time; the default 50 us
  // timer slack would add up to that much lag to every send.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  std::vector<int> cpus = AllowedCpus();
  if (cpus.empty() || !PinProcess(0, cpus.back())) cpus.clear();
  const pid_t keepalive = cpus.empty() ? -1 : StartCpuKeepalive();
  int status;
  {
    Generator generator(*workload, seed, trace, seconds, std::move(cpus),
                        keepalive, exe, out_dir);
    status = generator.Run();
  }
  StopProcess(keepalive);
  return status;
}
