#pragma once
// Fork-join over a fixed number of std::threads: the one worker pool of the
// campaign batch loop, the fleet shard pass and the OSTR task rounds.

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace stc {

/// Run fn(0), ..., fn(n-1) on n std::threads (n == 1 runs inline) and
/// return once all finished; each caller decides what call t does. A throw
/// escaping a std::thread terminates the process, so the first exception
/// is parked and rethrown here after the join.
template <class Fn>
void run_on_threads(std::size_t n, Fn&& fn) {
  if (n == 1) return fn(std::size_t{0});
  std::mutex err_mu;
  std::exception_ptr first_error;
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (std::size_t t = 0; t < n; ++t)
    pool.emplace_back([&, t] {
      try {
        fn(t);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  for (std::thread& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace stc
