#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"

namespace nb {

thread_pool::thread_pool(std::size_t threads) {
  const std::size_t n = resolve_workers(threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

thread_pool::~thread_pool() {
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void thread_pool::submit(std::function<void()> task) {
  NB_REQUIRE(task != nullptr, "cannot submit an empty task");
  {
    std::unique_lock lock(mutex_);
    NB_ASSERT(!stopping_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void thread_pool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void thread_pool::for_each(std::size_t count,
                           const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  std::atomic<std::size_t> next{0};
  for (std::size_t t = 0; t < std::min(size(), count); ++t) {
    submit([&body, &next, count, t] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) body(i, t);
    });
  }
  wait_idle();
}

void thread_pool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  NB_REQUIRE(body != nullptr, "parallel_for body must not be empty");
  if (count == 0) return;
  const std::size_t workers = std::min(resolve_workers(threads), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  thread_pool pool(workers);
  pool.for_each(count, [&body](std::size_t i, std::size_t) { body(i); });
}

std::size_t resolve_workers(std::size_t requested) noexcept {
  if (requested > 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

bool warn_if_oversubscribed(std::size_t workers, const std::string& what) {
  const auto cores = static_cast<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  if (workers <= cores) return false;
  return warn_once("oversubscribed/" + what,
                   what + ": " + std::to_string(workers) +
                       " worker threads exceed this machine's " + std::to_string(cores) +
                       " hardware threads; execution will time-slice (results are "
                       "unchanged by the determinism contract, wall-clock is not)");
}

}  // namespace nb
