// Minimal fixed-size thread pool and its one fan-out, for_each.
//
// Every parallel loop of the library -- parallel_for (campaign cells),
// the shard engine's shards and bin ranges, range_executor's ranged
// commits -- is "run body(i) for i in [0, count), then join", and runs
// through thread_pool::for_each: its tasks claim indices one at a time
// from a shared counter, so a slow index (a zipf campaign cell) never
// holds back indices queued behind it.
// Determinism comes from giving each *index* (not each thread) its own
// derived RNG seed and result slot, so results are identical for any
// thread count, including 1; which task runs which index is free to vary.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace nb {

class thread_pool {
 public:
  /// Creates `threads` workers (0 means std::thread::hardware_concurrency,
  /// with a floor of 1).
  explicit thread_pool(std::size_t threads = 0);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; tasks must not throw (wrap and capture if needed).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs body(i, task) for every i in [0, count) and returns once all
  /// ran: min(size(), count) pool tasks claim indices from one atomic
  /// counter until none are left.  `task` < min(size(), count) names the
  /// claiming task, for per-task scratch; which task runs which index
  /// varies, so bodies write only index- or task-owned data, and must not
  /// throw.  Joins through wait_idle, so tasks submitted ahead are waited
  /// for too -- except at count == 0, which submits and waits for nothing.
  void for_each(std::size_t count, const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs body(i) for i in [0, count) on a pool of `threads` workers (0 =
/// one per hardware core) through for_each; one worker (or one index)
/// runs inline, in index order, without a pool.  Exceptions escaping
/// `body` terminate (tasks are noexcept by contract); callers that can
/// throw should capture into a result slot instead.  Determinism
/// contract: workers only reorder *execution*; any result keyed on the
/// index is identical for every thread count, including 1.
void parallel_for(std::size_t count, std::size_t threads, const std::function<void(std::size_t)>& body);

/// `requested` worker threads resolved the way thread_pool resolves them
/// (0 = hardware_concurrency with a floor of 1).
[[nodiscard]] std::size_t resolve_workers(std::size_t requested) noexcept;

/// warn_once (keyed on `what`) when `workers` exceeds this machine's
/// hardware threads: oversubscription silently time-slices -- results are
/// unchanged by contract, wall-clock is not.  Returns true when the
/// warning fired.
bool warn_if_oversubscribed(std::size_t workers, const std::string& what);

}  // namespace nb
