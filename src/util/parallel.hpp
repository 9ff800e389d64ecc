// Deterministic parallel execution over an index range.
//
// The experiment drivers follow a plan/execute split: a serial, cheap
// *plan* phase pre-draws every random input, then a parallel *execute*
// phase runs each unit of work against only its own pre-drawn inputs.
// Because index i owns its inputs and its output slot, the result is
// bit-identical for any worker count — parallelism changes wall-clock
// time, never bytes.
//
// Thread count resolution: an explicit non-negative request wins;
// a negative request falls back to the MN_THREADS environment variable;
// 0 or 1 means serial (the loop runs inline in the caller, no threads
// are created).
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace mn {

/// Resolve a parallelism request: negative means "use MN_THREADS" (0,
/// serial, when unset or invalid), anything else is taken literally.
[[nodiscard]] int resolve_parallelism(int requested);

/// Run fn(0) .. fn(n-1) on a pool of `parallelism` workers (resolved via
/// resolve_parallelism; <= 1 runs inline).  Indices are handed out
/// dynamically, so execution *order* is unspecified — callers must make
/// each index self-contained.  The first exception thrown by any fn is
/// rethrown in the caller after all workers have stopped.
void parallel_for(std::size_t n, int parallelism,
                  const std::function<void(std::size_t)>& fn);

/// Map fn over [0, n) into a vector, preserving index order regardless
/// of which worker computed each element.  fn's result type must be
/// default-constructible.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t n, int parallelism, Fn&& fn) {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(std::is_default_constructible_v<R>,
                "parallel_map results are written into pre-sized slots");
  std::vector<R> out(n);
  parallel_for(n, parallelism, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace mn
