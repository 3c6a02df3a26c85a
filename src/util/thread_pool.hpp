// Minimal fixed-size thread pool and its one fan-out, for_each.
//
// Every parallel loop of the library -- parallel_for (campaign cells),
// the shard engine's shards and bin ranges, range_executor's ranged
// commits -- is "run body(i) for i in [0, count), then join", and runs
// through thread_pool::for_each: the caller and the pool's helpers claim
// indices one at a time from a shared counter, so a slow index (a zipf
// campaign cell) never holds back indices queued behind it.
// Determinism comes from one of two patterns, so results are identical
// for any thread count, including 1, while which thread runs which index
// is free to vary:
//   * each *index* (not each thread) gets its own derived RNG seed and
//     result slot (campaign cells, bin ranges);
//   * each index owns an accumulator that only commutative updates touch
//     (sums), and the accumulators are combined after the join: the shard
//     engine's tasks claim shards, each seeded by its shard index, and
//     fold them into per-task count rows, so which task folded which shard
//     cannot change the summed counts.
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
  /// A pool of `workers` workers (0 means std::thread::hardware_concurrency,
  /// with a floor of 1): the thread that calls for_each is one of them, so
  /// the pool starts workers - 1 helper threads, and a one-worker pool
  /// starts none.
  explicit thread_pool(std::size_t workers = 0);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Workers, the calling thread included.
  [[nodiscard]] std::size_t size() const noexcept { return helpers_.size() + 1; }

  /// Runs body(i) for every i in [0, count) and returns once all ran:
  /// the calling thread and min(size(), count) - 1 helpers claim indices
  /// from one atomic counter until none are left.  The caller starts at
  /// once, so a helper woken late (or busy with another caller's
  /// for_each) only shortens the tail instead of delaying the join, which
  /// waits for the indices alone; a helper that finds no index left is a
  /// no-op.  Which thread runs which index varies, so bodies write only
  /// index-owned data, and must not throw.  count == 0 wakes nothing.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  void helper_loop();

  std::vector<std::thread> helpers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool stopping_ = false;
};

/// Runs body(i) for i in [0, count) on a pool of min(`threads`, count)
/// workers (0 = one per hardware core) through for_each; one worker (or
/// one index) starts no thread and runs the indices in order.  Exceptions escaping
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
