// Transport syscall accounting.  The reactor (net/poller.h) runs on epoll
// alone; this header keeps the process-wide counters that tests and the
// benches difference around a run to report syscalls per delivered
// message, plus the name of the one I/O backend for run reports.
#pragma once

#include <cstdint>

namespace rsf::net {

/// The reactor's I/O backend.  epoll is the only one: the uring backend was
/// removed after it lost end to end (DESIGN.md, "Removed tiers").
enum class IoBackendKind : uint8_t { kEpoll };

constexpr IoBackendKind ResolveIoBackendKind() noexcept {
  return IoBackendKind::kEpoll;
}
constexpr const char* IoBackendKindName(IoBackendKind) noexcept {
  return "epoll";
}

/// Process-wide syscall counters for the transport data path: every
/// loop's epoll calls plus the socket-layer sendmsg/recv shims.
struct IoSyscallCounters {
  uint64_t epoll_waits = 0;
  uint64_t epoll_ctls = 0;
  uint64_t sendmsg_calls = 0;  // socket.cpp WriteSyscallCount
  uint64_t recv_calls = 0;     // socket.cpp RecvSyscallCount

  /// Transport syscalls: what a delivery actually pays the kernel.
  [[nodiscard]] uint64_t TotalSyscalls() const noexcept {
    return epoll_waits + epoll_ctls + sendmsg_calls + recv_calls;
  }
};
IoSyscallCounters GlobalIoCounters() noexcept;

/// Payload bytes the kernel sent without copying them.  Always 0: the
/// kernel zero-copy egress tier was removed (DESIGN.md, "Removed tiers");
/// the counter stays so run reports keep their `net.zerocopy_MB` column.
constexpr uint64_t ZeroCopySendBytes() noexcept { return 0; }

}  // namespace rsf::net
