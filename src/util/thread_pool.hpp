// Fork-join executor for experiment fan-out.
//
// Replications and sweep cells are fully independent simulations, so the
// only parallel structure the repo needs is "run these N closures, any
// order, tell me when all are done" — parallel_for().  Each call forks up
// to threads() - 1 std::threads; every participant, the caller included,
// claims the next index from one shared atomic counter until all N are
// claimed, and the call joins the workers before it returns.  Items here
// are entire simulation runs (milliseconds to seconds each), so a shared
// counter balances load as well as any stealing scheme would, and the
// per-call thread start is noise against them.  A worker's pool_alloc
// free lists go to the arena's orphan list when it exits
// (src/util/arena.cpp), so the thread churn does not grow the pool.
//
// Determinism: parallel_for only controls *where* closures run.  Callers
// keep results deterministic by writing into preallocated slots indexed
// by the closure argument and folding those slots in index order — the
// runner and sweep do exactly that, which is why pool size never changes
// a simulated number.
//
// Sizing: ThreadPool::shared() is sized once per process from
// SDA_THREADS when set (>= 1; 1 = strictly sequential, closures run
// inline on the caller in index order) and hardware_concurrency()
// otherwise.  Top-level calls are serialized, so two callers sharing a
// pool never run more than threads() bodies at once.
#pragma once

#include <cstddef>

#include "src/util/function_ref.hpp"
#include "src/util/mutex.hpp"

namespace sda::util {

class ThreadPool {
 public:
  /// An executor with @p threads total participants (including the
  /// calling thread).  0 and 1 both mean "no workers": parallel_for runs
  /// inline, strictly sequentially.
  explicit ThreadPool(unsigned threads) : threads_(threads < 1 ? 1 : threads) {}

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total participants (always >= 1).
  unsigned threads() const noexcept { return threads_; }

  /// Runs body(0) ... body(n-1), each exactly once, in unspecified order
  /// and concurrency, returning when all have finished.  The calling
  /// thread participates.  Concurrent calls from different threads are
  /// serialized; a nested call from inside a body runs inline (no
  /// deadlock, no extra parallelism).  If bodies throw, the first
  /// exception is rethrown here after every item has still been run.
  void parallel_for(std::size_t n, FunctionRef<void(std::size_t)> body)
      SDA_EXCLUDES(callers_m_);

  /// Process-wide pool sized from the environment (see configured_threads).
  /// Created on first use; shared by run_experiment and sweep.
  static ThreadPool& shared();

  /// SDA_THREADS when set (clamped to [1, 512]), else
  /// hardware_concurrency() (>= 1).
  static unsigned configured_threads() noexcept;

 private:
  const unsigned threads_;
  Mutex callers_m_;  // serializes top-level parallel_for calls
};

}  // namespace sda::util
