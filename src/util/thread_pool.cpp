#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/error.hpp"

namespace nb {

thread_pool::thread_pool(std::size_t workers) {
  const std::size_t helpers = resolve_workers(workers) - 1;
  helpers_.reserve(helpers);
  for (std::size_t i = 0; i < helpers; ++i) {
    helpers_.emplace_back([this] { helper_loop(); });
  }
}

thread_pool::~thread_pool() {
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& h : helpers_) h.join();
}

void thread_pool::for_each(std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Shared with the helper tasks, and kept alive by them: a helper that
  // starts only after every index is done finds none left to claim and
  // never touches `body`, which lives on the caller's stack.
  struct claim {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
  };
  const auto state = std::make_shared<claim>();
  state->body = &body;
  state->count = count;
  const auto work = [](claim& c) {
    for (std::size_t i = c.next.fetch_add(1); i < c.count; i = c.next.fetch_add(1)) {
      (*c.body)(i);
      if (c.done.fetch_add(1, std::memory_order_acq_rel) + 1 == c.count) c.done.notify_all();
    }
  };
  // One lock and one wake-up call for all helpers: on a VM each wake-up
  // is a costly call the caller would otherwise pay before its own share.
  const std::size_t helpers = std::min(size(), count) - 1;
  if (helpers > 0) {
    {
      std::unique_lock lock(mutex_);
      NB_ASSERT(!stopping_);
      for (std::size_t t = 0; t < helpers; ++t) tasks_.emplace([state, work] { work(*state); });
    }
    task_available_.notify_all();
  }
  work(*state);
  for (std::size_t d = state->done.load(std::memory_order_acquire); d != count;
       d = state->done.load(std::memory_order_acquire)) {
    state->done.wait(d, std::memory_order_acquire);
  }
}

void thread_pool::helper_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  NB_REQUIRE(body != nullptr, "parallel_for body must not be empty");
  if (count == 0) return;
  thread_pool pool(std::min(resolve_workers(threads), count));
  pool.for_each(count, body);
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
