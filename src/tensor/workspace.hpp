// Bump/arena allocator for the planned inference and training paths.
//
// A Workspace hands out 64-byte-aligned float spans with no per-allocation
// bookkeeping; the whole arena rewinds in O(1) via reset() (between batches)
// or a scoped Frame (between layers, so nested blocks reuse the same
// scratch).  Capacity never shrinks and growth appends new blocks instead of
// reallocating, so spans handed out earlier in a forward pass stay valid
// even when an estimate was low.  Peak usage is tracked in floats so plans
// can report their true high-water memory.
//
// Backing blocks are recycled through a process-level pool: a destroyed
// Workspace parks its blocks instead of freeing them, and the next arena
// that asks for a compatible size reuses the already-faulted pages.  A
// training plan's arena can run to ~hundreds of MiB, so rebuilding a plan
// (live reload, kill/resume, repeated benchmark reps) would otherwise pay
// the kernel page-fault cost of first-touching that memory every time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/view.hpp"

namespace nshd::tensor {

class Workspace {
 public:
  /// Alignment of every span handed out, in bytes.
  static constexpr std::size_t kAlignBytes = 64;
  static constexpr std::size_t kAlignFloats = kAlignBytes / sizeof(float);

  Workspace() = default;
  explicit Workspace(std::size_t initial_floats) { reserve(initial_floats); }
  ~Workspace();

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Grows total capacity to at least `floats` (never shrinks, never moves
  /// previously handed-out spans).
  void reserve(std::size_t floats);

  /// capacity_floats() of a fresh Workspace(floats): the first block is
  /// rounded up to the alignment quantum and the minimum block size.  Plans
  /// compare returned leases against it, so a pooled lease never reads as
  /// oversized.
  static std::size_t reserved_capacity(std::size_t floats);

  /// A 64-byte-aligned span of `numel` floats, uninitialized.  Valid until
  /// the enclosing Frame unwinds or reset() is called.  numel 0 -> nullptr.
  float* alloc(std::int64_t numel);

  /// Allocates and wraps in a view of the given shape.
  TensorView alloc_view(Shape shape) {
    const std::int64_t n = shape.numel();
    return TensorView(alloc(n), std::move(shape));
  }

  /// Rewinds the arena to empty; capacity and peak are retained.
  void reset();

  std::size_t in_use_floats() const { return in_use_; }
  std::size_t peak_floats() const { return peak_; }
  std::size_t peak_bytes() const { return peak_ * sizeof(float); }
  std::size_t capacity_floats() const;
  std::size_t capacity_bytes() const { return capacity_floats() * sizeof(float); }

  /// Number of blocks currently parked in the process-level recycle pool
  /// and their total capacity in floats (testing/diagnostics).
  static std::size_t pooled_blocks();
  static std::size_t pooled_floats();
  /// Frees every parked block (testing; also bounds RSS after a burst of
  /// large plans has been torn down for good).
  static void trim_pool();

  /// Scoped rewind point: allocations made after construction are released
  /// when the Frame leaves scope.  Frames must nest (stack order).
  class Frame {
   public:
    explicit Frame(Workspace& ws)
        : ws_(&ws), block_(ws.cur_block_), offset_(ws.cur_offset_), in_use_(ws.in_use_) {}
    ~Frame() {
      ws_->cur_block_ = block_;
      ws_->cur_offset_ = offset_;
      ws_->in_use_ = in_use_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Workspace* ws_;
    std::size_t block_, offset_, in_use_;
  };

 private:
  struct FreeDeleter {
    void operator()(float* p) const { std::free(p); }
  };
  struct Block {
    std::unique_ptr<float[], FreeDeleter> data;
    // Usable capacity is what this arena asked for, even when the recycled
    // backing allocation is bigger — capacity_floats() must depend only on
    // the arena's own growth history (plan lease pools classify leases by
    // it), never on what happened to be parked in the recycle pool.
    std::size_t capacity = 0;        // usable floats
    std::size_t alloc_capacity = 0;  // true allocation size, re-parked as-is
  };

  void add_block(std::size_t floats);

  std::vector<Block> blocks_;
  std::size_t cur_block_ = 0;   // block currently bumping
  std::size_t cur_offset_ = 0;  // floats used within cur_block_
  std::size_t in_use_ = 0;      // aligned floats across all blocks
  std::size_t peak_ = 0;
};

}  // namespace nshd::tensor
