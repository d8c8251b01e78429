// Small-buffer-optimized event callback.
//
// The DES hot path schedules millions of short-lived closures; std::function
// heap-allocates most of them and drags in RTTI machinery. EventCallback
// stores any callable whose captures fit in kInlineSize bytes directly inside
// the object (no allocation on schedule), falling back to the heap only for
// oversized captures. It is built in its engine slab slot with emplace(),
// invoked there and reset: an event callback never moves or copies.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tg {

class EventCallback {
 public:
  /// Captures up to this size (and max_align_t alignment) are stored inline.
  static constexpr std::size_t kInlineSize = 48;

  EventCallback() noexcept = default;

  /// Replaces the held callable, constructing the new one in place (the
  /// engine uses this to build callbacks directly inside slab slots).
  template <class F, class D = std::decay_t<F>>
  void emplace(F&& f) {
    reset();
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &inline_ops<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &heap_ops<D>;
    }
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Destroys the held callable (and frees its heap block, if any).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// True if a callable of type D is stored inline (diagnostics/tests).
  template <class D>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct Ops {
    void (*invoke)(std::byte*);
    void (*destroy)(std::byte*);
  };

  template <class D>
  static constexpr Ops inline_ops = {
      [](std::byte* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
      [](std::byte* p) { std::launder(reinterpret_cast<D*>(p))->~D(); }};

  template <class D>
  static constexpr Ops heap_ops = {
      [](std::byte* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
      [](std::byte* p) { delete *std::launder(reinterpret_cast<D**>(p)); }};

  alignas(std::max_align_t) std::byte storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace tg
