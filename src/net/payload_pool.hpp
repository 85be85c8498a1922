#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

/// \file payload_pool.hpp
/// Per-payload-type freelists behind Message::make.
///
/// Every simulated message body is allocated with std::allocate_shared and
/// a pooling allocator, so the control block and the body share ONE block,
/// and that block is recycled through a thread-local freelist keyed by the
/// concrete payload type. In the steady state a message send performs zero
/// heap allocations; a broadcast fan-out shares one body across all n-1
/// destinations (the shared_ptr makes the copies free).
///
/// Thread model: freelists are thread_local, so independent simulations on
/// different threads (tools/bench_runner) never contend or share blocks.
/// A block released on a different thread than it was acquired on simply
/// migrates to the releasing thread's freelist — all blocks of a type are
/// interchangeable.

namespace ecfd {

/// Global (per-thread) pool accounting, summed over all payload types.
struct PayloadPoolStats {
  std::uint64_t fresh{0};     ///< blocks obtained from operator new
  std::uint64_t reused{0};    ///< blocks served from a freelist
  std::uint64_t released{0};  ///< blocks returned to a freelist
};

namespace detail {

inline thread_local PayloadPoolStats t_payload_pool_stats;

/// The freelist for one (type, size) class. Owns its cached blocks: blocks
/// still on the list at thread exit are freed with the destructor.
class FreeList {
 public:
  ~FreeList() {
    for (void* p : blocks_) ::operator delete(p);
  }

  void* acquire() {
    if (blocks_.empty()) return nullptr;
    void* p = blocks_.back();
    blocks_.pop_back();
    return p;
  }

  bool release(void* p) {
    if (blocks_.size() >= kMaxCached) return false;
    blocks_.push_back(p);
    return true;
  }

 private:
  // Bounds per-type memory retention; beyond this blocks go back to the
  // system allocator.
  static constexpr std::size_t kMaxCached = 4096;
  std::vector<void*> blocks_;
};

/// Allocator plugged into std::allocate_shared. The shared_ptr control
/// block embeds the body, so U is the library's internal combined node
/// type; each distinct U gets its own thread-local freelist sized exactly
/// for sizeof(U). Only single-object allocations hit the pool.
template <class U>
class PoolAllocator {
 public:
  using value_type = U;

  PoolAllocator() = default;
  template <class V>
  PoolAllocator(const PoolAllocator<V>&) {}  // NOLINT(google-explicit-constructor)

  U* allocate(std::size_t n) {
    if (n != 1) {
      return static_cast<U*>(::operator new(n * sizeof(U)));
    }
    if (void* p = pool().acquire()) {
      ++t_payload_pool_stats.reused;
      return static_cast<U*>(p);
    }
    ++t_payload_pool_stats.fresh;
    return static_cast<U*>(::operator new(sizeof(U)));
  }

  void deallocate(U* p, std::size_t n) {
    if (n == 1) {
      ++t_payload_pool_stats.released;
      if (pool().release(p)) return;
    }
    ::operator delete(p);
  }

  template <class V>
  bool operator==(const PoolAllocator<V>&) const {
    return true;
  }
  template <class V>
  bool operator!=(const PoolAllocator<V>&) const {
    return false;
  }

 private:
  static FreeList& pool() {
    static thread_local FreeList list;
    return list;
  }
};

}  // namespace detail

/// Allocates a shared immutable payload body of type T from the per-type
/// pool. This is the only allocation a Message::make performs.
template <class T, class... Args>
std::shared_ptr<const T> make_pooled_payload(Args&&... args) {
  return std::allocate_shared<const T>(detail::PoolAllocator<const T>{},
                                       std::forward<Args>(args)...);
}

/// This thread's pool accounting (fresh/reused/released block counts).
inline PayloadPoolStats payload_pool_thread_stats() {
  return detail::t_payload_pool_stats;
}

}  // namespace ecfd
