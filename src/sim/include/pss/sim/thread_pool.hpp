// Persistent fork-join worker pool for the multi-lane engines.
//
// The engine dispatches one task per conflict-free batch — on the order of
// √N batches per cycle (see conflict_scheduler.hpp) — so workers must
// already be up and waiting: spawning threads per batch would cost more
// than a batch's work. The pool keeps `concurrency() - 1` blocked workers
// and counts the calling thread as lane 0, so `ThreadPool(1)` degenerates
// to a plain function call with no threads, no locks and no wakeups —
// which is what makes "threads = 1" runs exactly as cheap to reason about
// as the sequential engine.
//
// Synchronization is a mutex + two condition variables around an epoch
// counter (workers run one task invocation per epoch). Everything the task
// reads or writes is ordered by the mutex: publish-before-wake on entry,
// drain-before-return on exit, so run() is a full barrier — by the time it
// returns, every lane's writes are visible to the caller. Plain blocking
// primitives keep the pool ThreadSanitizer-clean by construction; the
// wakeup latency (a few µs per batch) is noise against batch execution
// time and is measured honestly in docs/PERFORMANCE.md.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pss::sim {

class ThreadPool {
 public:
  /// A pool with `concurrency` lanes total: the calling thread plus
  /// `concurrency - 1` workers. 0 means std::thread::hardware_concurrency()
  /// (itself falling back to 1 when the runtime reports nothing).
  explicit ThreadPool(unsigned concurrency);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Total lanes, caller included. Always >= 1.
  unsigned concurrency() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Invokes `task(lane)` once per lane in [0, concurrency()) — lane 0 on
  /// the calling thread — and returns after every invocation finished
  /// (full barrier). Not reentrant: run() must not be called from inside a
  /// task, and only one thread may drive the pool.
  ///
  /// The callable is shared by pointer into the caller's frame (alive
  /// until the barrier) through a function-pointer thunk — no
  /// type-erasure allocation, so the engines' per-batch dispatch stays on
  /// the flat core's zero-steady-state-allocation budget.
  ///
  /// Exception safety: if any lane's invocation throws (the check macros
  /// throw std::logic_error by design), the barrier still completes —
  /// every lane runs to its own end, so no captured caller state is
  /// destroyed under a running worker — and the first-recorded exception
  /// is rethrown from run() on the calling thread. The pool stays usable.
  template <typename Task>
  void run(Task&& task) {
    run_impl(std::addressof(task), [](void* ctx, unsigned lane) {
      (*static_cast<std::remove_reference_t<Task>*>(ctx))(lane);
    });
  }

 private:
  using TaskThunk = void (*)(void*, unsigned);

  void run_impl(void* ctx, TaskThunk thunk);
  void worker_loop(unsigned lane);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;  ///< caller -> workers: new epoch
  std::condition_variable done_cv_;   ///< workers -> caller: all finished
  void* task_ctx_ = nullptr;          ///< caller-frame task, valid for epoch
  TaskThunk task_thunk_ = nullptr;
  std::exception_ptr first_error_;    ///< first throw of the current epoch
  std::uint64_t epoch_ = 0;  ///< bumped per run(); workers run once per bump
  unsigned done_ = 0;        ///< workers finished with the current epoch
  bool stop_ = false;
};

}  // namespace pss::sim
