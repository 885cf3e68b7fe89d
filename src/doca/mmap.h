#pragma once

#include <sys/mman.h>

#include <cstdint>
#include <memory>
#include <new>

#include "common/buffer.h"

namespace doceph::doca {

/// A registered memory region visible to the DMA engine (DOCA's doca_mmap).
/// In this simulation both sides live in one process, so "export/import" is
/// sharing the MmapRef. The proxy registers its regions once, at startup, and
/// reuses them for every transfer, so no per-transfer negotiation is modeled.
///
/// The bytes come from an anonymous mapping: they read as zero and are paged
/// in on first touch, so a region a run never uses (the read landing during
/// a write-only run) costs no resident memory.
class Mmap {
 public:
  explicit Mmap(std::size_t size) : storage_(map_zeroed(size), 0, size) {}

  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }
  [[nodiscard]] char* data() noexcept { return storage_.mutable_data(); }
  [[nodiscard]] const char* data() const noexcept { return storage_.data(); }

  /// Zero-copy view of [off, off+len) as a BufferList slice.
  [[nodiscard]] BufferList view(std::size_t off, std::size_t len) const {
    BufferList bl;
    bl.append(storage_.subslice(off, len));
    return bl;
  }

 private:
  static std::shared_ptr<char[]> map_zeroed(std::size_t size) {
    if (size == 0) return nullptr;
    void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return {static_cast<char*>(p), [size](char* q) { ::munmap(q, size); }};
  }

  Slice storage_;
};

using MmapRef = std::shared_ptr<Mmap>;

/// A region handle within an Mmap (DOCA's doca_buf).
struct Buf {
  MmapRef mmap;
  std::size_t off = 0;
  std::size_t len = 0;

  [[nodiscard]] bool valid() const noexcept {
    return mmap != nullptr && off + len <= mmap->size();
  }
  [[nodiscard]] char* data() const noexcept { return mmap->data() + off; }
};

}  // namespace doceph::doca
