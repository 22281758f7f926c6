// Test names for the reactor/link suites.  These suites used to run once
// per I/O backend as `Backends/<Suite>.<Case>/<backend>`; epoll is now the
// only backend (the uring one was removed, see DESIGN.md §10), and this
// one-value parameter keeps the epoll cases under the names they have
// always been reported by.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "net/poller.h"

namespace rsf::net {

/// The single remaining backend.  It has no printer on purpose, so gtest
/// keeps reporting the parameter as a 1-byte object.
enum class TestBackend : std::uint8_t { kEpoll };

/// Base for suites that build their own loops (LinkHarness).
class BackendTest : public ::testing::TestWithParam<TestBackend> {};

/// A fresh, not yet started loop per test (the destructor stops it).
class BackendLoopTest : public BackendTest {
 protected:
  EventLoop loop;
};

/// Loop accounting shared by poller_test.cpp (link balancing) and
/// link_test.cpp (transport syscall counters); instantiated in
/// poller_test.cpp.
class IoBackendLoop : public BackendLoopTest {};

inline std::string BackendParamName(
    const ::testing::TestParamInfo<TestBackend>&) {
  return "epoll";
}

#define RSF_INSTANTIATE_BACKEND_SUITE(suite)                      \
  INSTANTIATE_TEST_SUITE_P(Backends, suite,                       \
                           ::testing::Values(TestBackend::kEpoll), \
                           BackendParamName)

}  // namespace rsf::net
