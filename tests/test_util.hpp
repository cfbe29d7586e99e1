// Minimal self-registering test harness: each PARMEM_TEST(name) links
// into a registry; the binary runs one named test (as driven by ctest)
// or all of them.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

namespace parmem::test {

using TestFn = void (*)();
std::map<std::string, TestFn>& registry();

struct Register {
  Register(const char* name, TestFn fn) { registry()[name] = fn; }
};

// Forces a fork2's right branch to be stolen: the right branch calls
// arrive() first, and the left branch calls await(ctx), which returns
// only once the right branch has started -- necessarily on another
// worker, since the forker is busy running the left branch. await polls
// while it spins, so a stop of the world never waits on it. Needs a
// runtime with at least two workers.
class StealRendezvous {
 public:
  void arrive() { started_.store(true, std::memory_order_release); }
  template <class Ctx>
  void await(Ctx& c) {
    while (!started_.load(std::memory_order_acquire)) {
      c.poll();
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<bool> started_{false};
};

}  // namespace parmem::test

#define PARMEM_TEST(name)                                          \
  static void parmem_test_##name();                                \
  static ::parmem::test::Register parmem_reg_##name(#name,         \
                                                    &parmem_test_##name); \
  static void parmem_test_##name()

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "CHECK failed: %s at %s:%d\n", #cond,        \
                   __FILE__, __LINE__);                                 \
      std::abort();                                                     \
    }                                                                   \
  } while (0)

#define CHECK_EQ(a, b)                                                  \
  do {                                                                  \
    auto va_ = (a);                                                     \
    auto vb_ = (b);                                                     \
    if (!(va_ == vb_)) {                                                \
      std::fprintf(stderr,                                              \
                   "CHECK_EQ failed: %s == %s (%lld vs %lld) at %s:%d\n", \
                   #a, #b, static_cast<long long>(va_),                 \
                   static_cast<long long>(vb_), __FILE__, __LINE__);    \
      std::abort();                                                     \
    }                                                                   \
  } while (0)
