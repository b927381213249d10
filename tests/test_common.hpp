// Minimal assertion helpers for the ctest suite (no external framework;
// the toolchain image is intentionally dependency-free).
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

namespace leap::test {

/// Stress-test window: LEAP_STRESS_MS overrides `preferred` (the CI
/// sanitizer jobs shrink every stress loop through it).
inline std::chrono::milliseconds stress_duration(
    std::chrono::milliseconds preferred) {
  if (const char* raw = std::getenv("LEAP_STRESS_MS")) {
    const long ms = std::strtol(raw, nullptr, 10);
    if (ms > 0) return std::chrono::milliseconds(ms);
  }
  return preferred;
}

inline int& failure_count() {
  static int failures = 0;
  return failures;
}

inline void fail(const char* file, int line, const std::string& message) {
  std::fprintf(stderr, "FAIL %s:%d: %s\n", file, line, message.c_str());
  ++failure_count();
  std::abort();
}

inline std::string to_display(const std::string& value) { return value; }
inline std::string to_display(const char* value) { return value; }
inline std::string to_display(bool value) { return value ? "true" : "false"; }
template <typename T>
std::string to_display(const T& value) {
  return std::to_string(value);
}

inline int finish(const char* name) {
  if (failure_count() == 0) {
    std::printf("OK %s\n", name);
    return 0;
  }
  return 1;
}

}  // namespace leap::test

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::leap::test::fail(__FILE__, __LINE__, "CHECK(" #cond ") failed"); \
    }                                                                   \
  } while (0)

#define CHECK_EQ(a, b)                                                       \
  do {                                                                       \
    const auto va = (a);                                                     \
    const auto vb = (b);                                                     \
    if (!(va == vb)) {                                                       \
      ::leap::test::fail(__FILE__, __LINE__,                                 \
                         std::string("CHECK_EQ(" #a ", " #b ") failed: ") +  \
                             ::leap::test::to_display(va) + " != " +         \
                             ::leap::test::to_display(vb));                  \
    }                                                                        \
  } while (0)

namespace leap::test {

/// Runs `fn` in a child process, its stderr sent to /dev/null; true
/// when the child died of SIGABRT. The death tests of the always-on
/// guards use it.
inline bool aborts_in_child(const std::function<void()>& fn) {
  const pid_t child = ::fork();
  CHECK(child >= 0);
  if (child == 0) {
    (void)std::freopen("/dev/null", "w", stderr);
    fn();
    std::_Exit(0);
  }
  int status = 0;
  CHECK_EQ(::waitpid(child, &status, 0), child);
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT;
}

}  // namespace leap::test
