#pragma once
// Test watchdog for code that may block forever (a simulated rank stuck in
// a receive or a collective). A Watchdog armed at the top of a test ends
// the test process with a failure if it is still alive after `seconds`,
// so a hang fails in bounded time instead of wedging ctest. Destroying it
// disarms and joins its thread.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace simas::testutil {

class Watchdog {
 public:
  explicit Watchdog(int seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                            [this] { return disarmed_; })) {
            std::fprintf(stderr, "watchdog: still blocked after %d s\n",
                         seconds);
            std::fflush(stderr);
            std::_Exit(1);
          }
        }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ = false;  ///< guarded by mutex_
  std::thread thread_;     ///< declared last: it uses the members above
};

}  // namespace simas::testutil
