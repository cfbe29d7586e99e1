// Heap object layout, engineered so the paper's cheap rows really are
// cheap:
//
//   [ fwd : 8B ][ meta : 8B ][ scalars... ][ pointers... ]
//
// Scalars come FIRST so an immutable i64 read is a single load at a
// statically known offset -- no meta decode, no barrier. Pointer-field
// access needs nscalar from meta, but every pointer op already pays a
// barrier so the extra load is noise.
//
// `fwd` doubles as (a) the promotion forwarding pointer ("the master
// copy now lives up there"), (b) the Cheney forwarding pointer during
// leaf GC, and (c) the claim word for fine-grained promotion (value
// kBusy while a claimer is copying).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace parmem {

class Object {
 public:
  static constexpr std::size_t kHeaderBytes = 16;
  static constexpr std::size_t kAlign = 16;

  // Fine-grained promotion claim sentinel; never a valid object address.
  static Object* busy_sentinel() { return reinterpret_cast<Object*>(1); }

  static constexpr std::size_t size_bytes(std::uint32_t nptr,
                                          std::uint32_t nscalar) {
    std::size_t raw = kHeaderBytes + 8u * (std::size_t{nptr} + nscalar);
    return (raw + (kAlign - 1)) & ~(kAlign - 1);
  }

  void init_header(std::uint32_t nptr, std::uint32_t nscalar) {
    fwd_.store(nullptr, std::memory_order_relaxed);
    meta_ = (std::uint64_t{nscalar} << 32) | nptr;
  }

  std::uint32_t nptr() const { return static_cast<std::uint32_t>(meta_); }
  std::uint32_t nscalar() const {
    return static_cast<std::uint32_t>(meta_ >> 32);
  }
  std::uint64_t meta_word() const { return meta_; }
  std::size_t size() const { return size_bytes(nptr(), nscalar()); }

  std::int64_t* scalars() {
    return reinterpret_cast<std::int64_t*>(reinterpret_cast<char*>(this) +
                                           kHeaderBytes);
  }
  const std::int64_t* scalars() const {
    return const_cast<Object*>(this)->scalars();
  }
  Object** ptrs() { return reinterpret_cast<Object**>(scalars() + nscalar()); }

  std::int64_t scalar(std::uint32_t i) const { return scalars()[i]; }
  void set_scalar(std::uint32_t i, std::int64_t v) { scalars()[i] = v; }

  Object* ptr(std::uint32_t i) {
    return std::atomic_ref<Object*>(ptrs()[i]).load(std::memory_order_acquire);
  }
  void set_ptr(std::uint32_t i, Object* v) {
    std::atomic_ref<Object*>(ptrs()[i]).store(v, std::memory_order_release);
  }
  void set_ptr_relaxed(std::uint32_t i, Object* v) { ptrs()[i] = v; }

  // Plain (barrier-free) stores for single-task graph construction
  // outside any runtime Ctx -- standalone-heap builders in benches and
  // tests. Not safe once the object is visible to another task.
  void store_i64_plain(std::uint32_t i, std::int64_t v) { set_scalar(i, v); }
  void store_ptr_plain(std::uint32_t i, Object* v) { set_ptr_relaxed(i, v); }

  // The forwarding word aliased as a plain pointer slot, so collectors
  // can treat stale promotion-forwarding edges as roots (a stale copy
  // whose master lives in a heap under collection keeps that master
  // alive, and the slot must be rewritten when the master moves).
  // std::atomic<Object*> has the representation of Object* on every
  // supported ABI (asserted below); the slot is only handed out while
  // the mutators that could touch this word are stopped.
  Object** fwd_slot() { return reinterpret_cast<Object**>(&fwd_); }

  Object* fwd_acquire() const { return fwd_.load(std::memory_order_acquire); }
  Object* fwd_relaxed() const { return fwd_.load(std::memory_order_relaxed); }
  void set_fwd(Object* f, std::memory_order mo = std::memory_order_release) {
    fwd_.store(f, mo);
  }
  bool claim_fwd() {  // fine-grained promotion: null -> kBusy
    Object* expect = nullptr;
    return fwd_.compare_exchange_strong(expect, busy_sentinel(),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
  }

  // Follow the forwarding chain to the master copy. Inline is only
  // what the mutable barriers need: one predictable not-taken branch
  // for an unpromoted object, and one hop for a stale copy whose
  // master is not itself forwarded. Longer chains and in-flight
  // fine-grained claims go out of line to chase_slow, so the hot path
  // is straight-line code rather than a loop the compiler enters by a
  // jump on every read. Force-inlined: this IS the mutable-barrier
  // fast path, and once the runtime translation unit grew past the
  // inliner's unit-growth budget gcc started outlining it, tripling
  // the fig08 barrier rows. (Outlining the one hop too doubles the
  // promoted-read row.)
  [[gnu::always_inline]] static inline Object* chase(Object* o) {
    Object* f = o->fwd_.load(std::memory_order_acquire);
    if (__builtin_expect(f == nullptr, 1)) {
      return o;
    }
    if (f != busy_sentinel() &&
        f->fwd_.load(std::memory_order_acquire) == nullptr) {
      return f;
    }
    return chase_slow(o);
  }

  // The rest of chase: walks any chain length and spins past kBusy (a
  // concurrent fine-grained promotion is mid-copy; the claimer installs
  // the real pointer shortly).
  [[gnu::noinline]] static Object* chase_slow(Object* o) {
    Object* f = o->fwd_.load(std::memory_order_acquire);
    while (f != nullptr) {
      if (f == busy_sentinel()) {
        f = o->fwd_.load(std::memory_order_acquire);
        continue;
      }
      o = f;
      f = o->fwd_.load(std::memory_order_acquire);
    }
    return o;
  }

  void zero_fields() {
    std::uint64_t* p = reinterpret_cast<std::uint64_t*>(scalars());
    std::size_t n = std::size_t{nptr()} + nscalar();
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = 0;
    }
  }

 private:
  std::atomic<Object*> fwd_;
  std::uint64_t meta_;
};

static_assert(sizeof(Object) == Object::kHeaderBytes,
              "object header must be exactly two words");
static_assert(sizeof(std::atomic<Object*>) == sizeof(Object*) &&
                  alignof(std::atomic<Object*>) == alignof(Object*),
              "fwd_slot() aliases the atomic forwarding word as Object*");

// Footprint of an object with `nptr` pointer and `nscalar` i64 fields
// -- what raw allocators (HeapRecord::allocate_raw) must reserve.
inline constexpr std::size_t object_bytes(std::uint32_t nptr,
                                          std::uint32_t nscalar) {
  return Object::size_bytes(nptr, nscalar);
}

// Place an object header over raw heap memory (allocate_raw result)
// and zero its fields.
inline Object* init_object(void* mem, std::uint32_t nptr,
                           std::uint32_t nscalar) {
  Object* o = reinterpret_cast<Object*>(mem);
  o->init_header(nptr, nscalar);
  o->zero_fields();
  return o;
}

}  // namespace parmem
