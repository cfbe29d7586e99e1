// Precise root registration. A RootFrame is a stack-discipline batch
// of root slots owned by one task context; Local is a handle to one
// slot. Handles load through the slot on every get(), so both the leaf
// collector and join-time collection may relocate objects and simply
// rewrite the slot -- captured Locals (including ones captured by value
// into fork2 branches) stay valid as long as the frame is alive.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <memory>
#include <vector>

#include "core/object.hpp"

namespace parmem {

class RootFrame;

class Local {
 public:
  Local() = default;
  // Slot accesses are atomic: a branch on one worker publishes into an
  // ancestor's slot while another worker's leaf GC may scan the same
  // frame chain. The mutator's ordering comes from the fork2 join
  // (done-flag acquire), not from the slot; the store releases so that
  // a collector's acquire load of the slot also sees the header of the
  // chunk the published object sits in.
  Object* get() const {
    return std::atomic_ref<Object*>(*slot_).load(std::memory_order_relaxed);
  }
  void set(Object* p) const {
    std::atomic_ref<Object*>(*slot_).store(p, std::memory_order_release);
  }
  Object** slot() const { return slot_; }

 private:
  friend class RootFrame;
  explicit Local(Object** slot) : slot_(slot) {}
  Object** slot_ = nullptr;
};

class RootFrame {
 public:
  // Works for any context type exposing root_head_ref() -- keeps this
  // header independent of the runtime that owns the frame chain.
  template <class C>
  explicit RootFrame(C& ctx) : head_(ctx.root_head_ref()) {
    prev_ = *head_;
    *head_ = this;
  }
  RootFrame(const RootFrame&) = delete;
  RootFrame& operator=(const RootFrame&) = delete;

  ~RootFrame() {
    assert(*head_ == this && "root frames must nest stack-like");
    *head_ = prev_;
  }

  Local local(Object* p) {
    Object** slot = fresh_slot();
    *slot = p;
    return Local(slot);
  }

  RootFrame* prev() const { return prev_; }

  template <class Fn>
  void for_each_slot(Fn&& fn) {
    std::size_t n = count_;
    for (std::size_t i = 0; i < n && i < kInline; ++i) {
      fn(&inline_[i]);
    }
    if (n > kInline) {
      std::size_t left = n - kInline;
      for (auto& block : spill_) {
        std::size_t take = left < kSpillBlock ? left : kSpillBlock;
        for (std::size_t i = 0; i < take; ++i) {
          fn(&(*block)[i]);
        }
        left -= take;
        if (left == 0) {
          break;
        }
      }
    }
  }

 private:
  static constexpr std::size_t kInline = 16;
  static constexpr std::size_t kSpillBlock = 64;

  Object** fresh_slot() {
    std::size_t i = count_++;
    if (i < kInline) {
      return &inline_[i];
    }
    std::size_t si = i - kInline;
    std::size_t block = si / kSpillBlock;
    if (block == spill_.size()) {
      // Blocks are heap-stable so previously handed-out slots never move.
      spill_.push_back(
          std::make_unique<std::array<Object*, kSpillBlock>>());
    }
    return &(*spill_[block])[si % kSpillBlock];
  }

  RootFrame** head_;
  RootFrame* prev_ = nullptr;
  std::size_t count_ = 0;
  Object* inline_[kInline];
  std::vector<std::unique_ptr<std::array<Object*, kSpillBlock>>> spill_;
};

}  // namespace parmem
