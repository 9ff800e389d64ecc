// InplaceFunction: a move-only std::function replacement whose callable
// lives inside the object (small-buffer storage), so storing and moving
// one never touches the heap for captures up to `Capacity` bytes.
//
// The simulator keeps one of these inline in every event slot — the
// whole point of the slab engine is that scheduling a packet hop costs
// zero allocations, which std::function cannot promise (its SBO is
// implementation-defined and typically ~16 bytes).  Oversized or
// throwing-move callables still work: they fall back to a heap box, and
// every fallback bumps a process-wide counter so a regression that
// silently re-introduces per-event allocation shows up in the perf
// numbers (`BENCH_*.json` records it as `allocs`) and in tests.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace mn {

namespace detail {
inline std::atomic<std::uint64_t>& inplace_heap_counter() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}
}  // namespace detail

/// Process-wide count of InplaceFunction constructions that had to box
/// their callable on the heap (capture larger than the buffer, or a
/// move constructor that may throw).  Stays 0 on the allocation-free
/// common path; benches and tests assert on it.
[[nodiscard]] inline std::uint64_t inplace_function_heap_fallbacks() {
  return detail::inplace_heap_counter().load(std::memory_order_relaxed);
}

template <class Sig, std::size_t Capacity = 64>
class InplaceFunction;

template <class R, class... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  static constexpr std::size_t kCapacity = Capacity;

  InplaceFunction() noexcept = default;
  InplaceFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, InplaceFunction> &&
                                     !std::is_same_v<D, std::nullptr_t> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  /// Destroy the current callable (if any) and construct `f` directly
  /// in the buffer — no intermediate InplaceFunction, no relocation.
  /// The simulator's schedule path uses this to build each event
  /// callback straight into its slab slot.
  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, InplaceFunction> &&
                                     !std::is_same_v<D, std::nullptr_t> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  InplaceFunction(InplaceFunction&& other) noexcept { take(other); }
  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;
  InplaceFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  ~InplaceFunction() { reset(); }

  void reset() noexcept {
    if (vtable_) {
      // Trivially-destructible inline callables (the per-event common
      // case: lambdas capturing pointers and integers) skip the
      // indirect destroy call entirely.
      if (!vtable_->trivial) vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return vtable_ != nullptr; }

  R operator()(Args... args) const {
    return vtable_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    R (*invoke)(void*, Args&&...);
    // Move-construct `dst` from `src`, then destroy `src` (relocation).
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void*) noexcept;
    // Inline callable that is trivially copyable AND trivially
    // destructible: relocation is a raw memcpy and destruction a no-op,
    // so moves/resets never make an indirect call.
    bool trivial;
  };

  template <class D>
  static constexpr bool fits_inline = sizeof(D) <= Capacity &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <class D>
  static constexpr VTable kInlineOps{
      [](void* p, Args&&... args) -> R {
        return (*static_cast<D*>(p))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) noexcept { static_cast<D*>(p)->~D(); },
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>};

  template <class D>
  static constexpr VTable kHeapOps{
      [](void* p, Args&&... args) -> R {
        return (**static_cast<D**>(p))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept { ::new (dst) D*(*static_cast<D**>(src)); },
      [](void* p) noexcept { delete *static_cast<D**>(p); },
      false};

  template <class F, class D = std::decay_t<F>>
  void construct(F&& f) {
    if constexpr (fits_inline<D>) {
      // A captureless callable writes no byte of storage_; give the
      // trivial memcpy relocation in take() one defined byte to copy.
      if constexpr (std::is_empty_v<D>) storage_[0] = std::byte{0};
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      vtable_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      vtable_ = &kHeapOps<D>;
      detail::inplace_heap_counter().fetch_add(1, std::memory_order_relaxed);
    }
  }

  void take(InplaceFunction& other) noexcept {
    if (other.vtable_) {
      if (other.vtable_->trivial) {
        // Fixed-size copy: compiles to a handful of vector moves.
        std::memcpy(storage_, other.storage_, kStorageBytes);
      } else {
        other.vtable_->relocate(other.storage_, storage_);
      }
      vtable_ = other.vtable_;
      other.vtable_ = nullptr;
    }
  }

  static constexpr std::size_t kStorageBytes =
      Capacity < sizeof(void*) ? sizeof(void*) : Capacity;
  alignas(std::max_align_t) mutable std::byte storage_[kStorageBytes];
  const VTable* vtable_ = nullptr;
};

}  // namespace mn
