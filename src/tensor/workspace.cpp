#include "tensor/workspace.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <mutex>

namespace nshd::tensor {

namespace {
constexpr std::size_t kMinBlockFloats = 4096;  // 16 KiB floor per block

// Upper bound on what the recycle pool may hold parked at once.  Large
// enough for the biggest training-plan arena in the zoo, small enough that
// the pool cannot hoard unbounded RSS when arena sizes keep growing.
constexpr std::size_t kPoolCapFloats = (std::size_t(1) << 30) / sizeof(float);

std::size_t align_up(std::size_t floats) {
  return (floats + Workspace::kAlignFloats - 1) & ~(Workspace::kAlignFloats - 1);
}

struct Parked {
  float* data;
  std::size_t capacity;  // floats
};

// Process-level recycle pool.  Intentionally leaked (static pointer, never
// deleted): static Workspaces may be destroyed after any function-local
// static pool object, and parking into a dead pool would be UB.  The
// still-reachable blocks are reclaimed by the OS at exit.
struct BlockPool {
  std::mutex mu;
  std::vector<Parked> parked;
  std::size_t total_floats = 0;

  // Smallest parked block that fits, and never one more than 2x the ask, so
  // a tiny arena cannot strand a training-plan-sized block it would never
  // fill.
  bool acquire(std::size_t need, Parked& out) {
    std::lock_guard<std::mutex> lock(mu);
    std::size_t best = parked.size();
    for (std::size_t i = 0; i < parked.size(); ++i) {
      if (parked[i].capacity < need || parked[i].capacity > 2 * need) continue;
      if (best == parked.size() || parked[i].capacity < parked[best].capacity)
        best = i;
    }
    if (best == parked.size()) return false;
    out = parked[best];
    parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(best));
    total_floats -= out.capacity;
    return true;
  }

  void release(float* data, std::size_t capacity) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (total_floats + capacity <= kPoolCapFloats) {
        parked.push_back({data, capacity});
        total_floats += capacity;
        return;
      }
    }
    std::free(data);
  }
};

BlockPool& pool() {
  static BlockPool* p = new BlockPool;
  return *p;
}
}  // namespace

Workspace::~Workspace() {
  for (Block& b : blocks_) pool().release(b.data.release(), b.alloc_capacity);
}

std::size_t Workspace::reserved_capacity(std::size_t floats) {
  return floats == 0 ? 0 : std::max(align_up(floats), kMinBlockFloats);
}

void Workspace::add_block(std::size_t floats) {
  // Geometric growth keeps the block list short when estimates were low.
  const std::size_t last = blocks_.empty() ? 0 : blocks_.back().capacity;
  const std::size_t capacity =
      std::max({align_up(floats), 2 * last, kMinBlockFloats});
  Block block;
  block.capacity = capacity;  // what this arena asked for, recycled or not
  Parked recycled;
  if (pool().acquire(capacity, recycled)) {
    block.data.reset(recycled.data);
    block.alloc_capacity = recycled.capacity;
  } else {
    block.data.reset(static_cast<float*>(
        std::aligned_alloc(kAlignBytes, capacity * sizeof(float))));
    assert(block.data != nullptr && "workspace allocation failed");
    block.alloc_capacity = capacity;
  }
  blocks_.push_back(std::move(block));
}

void Workspace::reserve(std::size_t floats) {
  if (floats > capacity_floats()) add_block(floats - capacity_floats());
}

float* Workspace::alloc(std::int64_t numel) {
  assert(numel >= 0);
  if (numel == 0) return nullptr;
  const std::size_t need = align_up(static_cast<std::size_t>(numel));
  // Advance to the first block that fits; skipped tails stay unused until
  // the next reset/Frame rewind.
  while (cur_block_ < blocks_.size() &&
         cur_offset_ + need > blocks_[cur_block_].capacity) {
    ++cur_block_;
    cur_offset_ = 0;
  }
  if (cur_block_ >= blocks_.size()) {
    add_block(need);
    cur_block_ = blocks_.size() - 1;
    cur_offset_ = 0;
  }
  float* out = blocks_[cur_block_].data.get() + cur_offset_;
  cur_offset_ += need;
  in_use_ += need;
  peak_ = std::max(peak_, in_use_);
  return out;
}

void Workspace::reset() {
  cur_block_ = 0;
  cur_offset_ = 0;
  in_use_ = 0;
}

std::size_t Workspace::capacity_floats() const {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.capacity;
  return total;
}

std::size_t Workspace::pooled_blocks() {
  std::lock_guard<std::mutex> lock(pool().mu);
  return pool().parked.size();
}

std::size_t Workspace::pooled_floats() {
  std::lock_guard<std::mutex> lock(pool().mu);
  return pool().total_floats;
}

void Workspace::trim_pool() {
  std::lock_guard<std::mutex> lock(pool().mu);
  for (const Parked& p : pool().parked) std::free(p.data);
  pool().parked.clear();
  pool().total_floats = 0;
}

}  // namespace nshd::tensor
