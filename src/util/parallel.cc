#include "util/parallel.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace mn {

namespace {
int env_threads() {
  if (const char* v = std::getenv("MN_THREADS")) {
    const int n = std::atoi(v);
    if (n > 0) return n;
  }
  return 0;
}
}  // namespace

int resolve_parallelism(int requested) {
  return requested < 0 ? env_threads() : requested;
}

void parallel_for(std::size_t n, int parallelism,
                  const std::function<void(std::size_t)>& fn) {
  const int threads = resolve_parallelism(parallelism);
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  const std::size_t workers = std::min(static_cast<std::size_t>(threads), n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;

  auto work = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace mn
