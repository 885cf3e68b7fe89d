#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace doceph {

/// A reference-counted, immutable-after-fill view of raw bytes.
/// Copying a Slice is O(1); the underlying storage is shared.
///
/// A slice of at least kCrcCacheMin bytes remembers its crc32c(0, bytes)
/// once BufferList::crc32c has hashed it, and copies of the slice carry
/// that value along; this is how a received payload forwarded in another
/// message is hashed only once (Ceph's buffer::raw crc cache). A write
/// through mutable_data() of any view of the same storage drops every
/// view's cached value. Views made by subslice() (and so by
/// BufferList::substr) start with none.
class Slice {
 public:
  static constexpr std::size_t kCrcCacheMin = 4096;

  Slice() noexcept = default;
  /// Adopt storage owned elsewhere (e.g. a registered memory region).
  Slice(std::shared_ptr<char[]> store, std::size_t off, std::size_t len)
      : raw_(std::make_shared<Raw>(std::move(store))), off_(off), len_(len) {}
  Slice(const Slice& o) noexcept
      : raw_(o.raw_), off_(o.off_), len_(o.len_), crc_(o.crc_.load()) {}
  Slice(Slice&& o) noexcept
      : raw_(std::move(o.raw_)),
        off_(o.off_),
        len_(o.len_),
        crc_(o.crc_.load()) {}
  Slice& operator=(const Slice& o) noexcept {
    if (this != &o) *this = Slice(o);
    return *this;
  }
  Slice& operator=(Slice&& o) noexcept {
    raw_ = std::move(o.raw_);
    off_ = o.off_;
    len_ = o.len_;
    crc_.store(o.crc_.load());
    return *this;
  }
  ~Slice() = default;

  /// Allocate an uninitialized slice of `len` bytes (single owner until shared).
  static Slice allocate(std::size_t len);
  /// Allocate and fill from `data`.
  static Slice copy_of(const void* data, std::size_t len);
  static Slice copy_of(std::string_view sv) { return copy_of(sv.data(), sv.size()); }

  [[nodiscard]] const char* data() const noexcept {
    return raw_ != nullptr ? raw_->bytes + off_ : nullptr;
  }
  /// For filling the bytes: drops the cached crc of every view of this
  /// storage. Write through the pointer before the bytes are hashed again.
  [[nodiscard]] char* mutable_data() noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] bool empty() const noexcept { return len_ == 0; }

  /// Zero-copy sub-view; `off + len` must be within the slice.
  [[nodiscard]] Slice subslice(std::size_t off, std::size_t len) const;

 private:
  friend class BufferList;

  /// The bytes behind a slice and all its views, plus a count of writes
  /// through mutable_data(): a cached crc is valid only for the count it
  /// was taken at.
  struct Raw {
    explicit Raw(std::size_t len) : own(new char[len]), bytes(own.get()) {}
    explicit Raw(std::shared_ptr<char[]> store)
        : adopted(std::move(store)), bytes(adopted.get()) {}
    std::unique_ptr<char[]> own;
    std::shared_ptr<char[]> adopted;
    char* bytes;
    std::atomic<std::uint32_t> writes{0};
  };

  // crc_ packs a valid bit (63), the low 31 bits of Raw::writes when the
  // crc was taken (62..32) and the crc (31..0); 0 is "none". Atomic
  // because BufferList::crc32c is const and a slice may be hashed by two
  // threads at once (one message sent on two connections).
  static constexpr std::uint64_t kCrcValid = std::uint64_t{1} << 63;
  static constexpr std::uint32_t kWritesMask = 0x7fffffffu;

  /// The cached crc32c(0, bytes), if one was taken since the last write.
  [[nodiscard]] bool cached_crc(std::uint32_t& crc) const noexcept;
  /// The write count to pass to cache_crc: read it before hashing.
  [[nodiscard]] std::uint32_t writes() const noexcept {
    return raw_->writes.load();
  }
  void cache_crc(std::uint32_t writes, std::uint32_t crc) const noexcept {
    crc_.store(kCrcValid | (std::uint64_t{writes & kWritesMask} << 32) | crc);
  }

  std::shared_ptr<Raw> raw_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
  mutable std::atomic<std::uint64_t> crc_{0};
};

/// A rope of Slices, modeled after Ceph's bufferlist: appending, zero-copy
/// substr/claim, checksumming, and a decode Cursor. This is the unit of
/// payload throughout the messenger, object store, and proxy layers.
class BufferList {
 public:
  BufferList() = default;

  [[nodiscard]] std::size_t length() const noexcept { return len_; }
  [[nodiscard]] bool empty() const noexcept { return len_ == 0; }
  void clear() noexcept {
    slices_.clear();
    len_ = 0;
  }

  void append(Slice s);
  void append(const void* data, std::size_t len);
  void append(std::string_view sv) { append(sv.data(), sv.size()); }
  void append(char c) { append(&c, 1); }
  /// Append `len` zero bytes.
  void append_zero(std::size_t len);
  /// Append another list's slices (zero copy).
  void append(const BufferList& other);
  /// Move another list's slices onto the end of this one; `other` is emptied.
  void claim_append(BufferList& other);

  static BufferList copy_of(const void* data, std::size_t len) {
    BufferList bl;
    bl.append(data, len);
    return bl;
  }
  static BufferList copy_of(std::string_view sv) { return copy_of(sv.data(), sv.size()); }

  /// Zero-copy sub-list [off, off+len). Clamps to the available length.
  [[nodiscard]] BufferList substr(std::size_t off, std::size_t len) const;

  /// Copy out [off, off+len) into dst; returns bytes copied (clamped).
  std::size_t copy_out(std::size_t off, std::size_t len, void* dst) const;

  [[nodiscard]] std::string to_string() const;

  /// CRC-32C over the whole content, continuing from `seed`. A slice with a
  /// cached crc is chained in with crc32c_combine instead of being hashed;
  /// a slice of at least Slice::kCrcCacheMin bytes that is hashed caches
  /// its crc. `hashed`, if set, receives the number of bytes hashed.
  [[nodiscard]] std::uint32_t crc32c(std::uint32_t seed = 0,
                                     std::size_t* hashed = nullptr) const;
  /// The same value, but every byte is hashed and no cached crc is trusted
  /// (the ones it computes are cached): for checking bytes against a crc
  /// taken elsewhere (a received frame, a record read back, a scrub).
  [[nodiscard]] std::uint32_t crc32c_verify(std::uint32_t seed = 0) const;

  /// Number of underlying slices (for tests / copy-avoidance assertions).
  [[nodiscard]] std::size_t num_slices() const noexcept { return slices_.size(); }
  [[nodiscard]] const std::vector<Slice>& slices() const noexcept { return slices_; }

  /// Flatten into a single contiguous slice (copies only if fragmented).
  [[nodiscard]] Slice contiguous() const;

  /// Byte-wise equality (content, not fragmentation).
  friend bool operator==(const BufferList& a, const BufferList& b);

  /// Sequential reader over a BufferList, used by decoders.
  class Cursor {
   public:
    explicit Cursor(const BufferList& bl) noexcept : bl_(&bl) {}
    explicit Cursor(const BufferList&& bl) = delete;  // no binding to temporaries

    [[nodiscard]] std::size_t remaining() const noexcept { return bl_->len_ - pos_; }
    [[nodiscard]] std::size_t position() const noexcept { return pos_; }

    /// Copy `len` bytes to dst and advance. Returns false (without moving)
    /// if fewer than `len` bytes remain.
    bool copy(std::size_t len, void* dst);
    /// Extract `len` bytes as a zero-copy BufferList and advance.
    bool get_buffer_list(std::size_t len, BufferList& out);
    bool skip(std::size_t len);

   private:
    const BufferList* bl_;
    std::size_t pos_ = 0;
  };

 private:
  /// Continue `crc` over `s`'s bytes, caching the slice's own crc.
  static std::uint32_t hash_slice(std::uint32_t crc, const Slice& s);

  std::vector<Slice> slices_;
  std::size_t len_ = 0;
};

}  // namespace doceph
