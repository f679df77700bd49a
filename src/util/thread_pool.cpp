#include "src/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "src/util/env.hpp"

namespace sda::util {

namespace {
/// True while the current thread is executing a parallel_for body; nested
/// parallel_for calls then run inline instead of deadlocking on the
/// caller-serialization mutex.
thread_local bool t_inside_pool_body = false;
}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              FunctionRef<void(std::size_t)> body) {
  if (n == 0) return;
  // Sequential modes: no workers, trivial batch, or a nested call from
  // inside a body (which must not wait on callers_m_).
  if (threads_ <= 1 || n == 1 || t_inside_pool_body) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  LockGuard serialize(callers_m_);
  std::atomic<std::size_t> next{0};
  // Exactly one participant wins the flag and writes first_error; the
  // joins below order that write before the read.
  std::atomic_flag failed;
  std::exception_ptr first_error;
  const auto participate = [&] {
    t_inside_pool_body = true;
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        if (!failed.test_and_set()) first_error = std::current_exception();
      }
    }
    t_inside_pool_body = false;
  };
  std::vector<std::thread> workers;
  const std::size_t extra = std::min<std::size_t>(threads_, n) - 1;
  workers.reserve(extra);
  try {
    for (std::size_t w = 0; w < extra; ++w) workers.emplace_back(participate);
  } catch (const std::system_error&) {
    // The host refused a thread: the participants already started (and
    // the caller) still claim every index.
  }
  participate();
  for (std::thread& t : workers) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

unsigned ThreadPool::configured_threads() noexcept {
  const std::int64_t requested = env_int("SDA_THREADS", 0);
  if (requested >= 1) {
    return static_cast<unsigned>(requested > 512 ? 512 : requested);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(configured_threads());
  return pool;
}

}  // namespace sda::util
