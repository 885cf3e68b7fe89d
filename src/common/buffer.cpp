#include "common/buffer.h"

#include <algorithm>
#include <cassert>

#include "common/crc32c.h"

namespace doceph {

Slice Slice::allocate(std::size_t len) {
  // The bytes are left uninitialized (new char[], not value-init): large
  // buffers are filled by their caller anyway.
  Slice s;
  s.raw_ = std::make_shared<Raw>(len);
  s.len_ = len;
  return s;
}

Slice Slice::copy_of(const void* data, std::size_t len) {
  Slice s = allocate(len);
  if (len > 0) std::memcpy(s.raw_->bytes, data, len);  // fresh: nothing cached yet
  return s;
}

char* Slice::mutable_data() noexcept {
  if (raw_ == nullptr) return nullptr;
  raw_->writes.fetch_add(1);
  return raw_->bytes + off_;
}

bool Slice::cached_crc(std::uint32_t& crc) const noexcept {
  const std::uint64_t c = crc_.load();
  if ((c & kCrcValid) == 0 || ((c >> 32) & kWritesMask) != (writes() & kWritesMask))
    return false;
  crc = static_cast<std::uint32_t>(c);
  return true;
}

Slice Slice::subslice(std::size_t off, std::size_t len) const {
  assert(off + len <= len_);
  Slice s;
  s.raw_ = raw_;
  s.off_ = off_ + off;
  s.len_ = len;
  return s;
}

void BufferList::append(Slice s) {
  if (s.empty()) return;
  len_ += s.size();
  slices_.push_back(std::move(s));
}

void BufferList::append(const void* data, std::size_t len) {
  if (len == 0) return;
  append(Slice::copy_of(data, len));
}

void BufferList::append_zero(std::size_t len) {
  if (len == 0) return;
  Slice s = Slice::allocate(len);
  std::memset(s.mutable_data(), 0, len);
  append(std::move(s));
}

void BufferList::append(const BufferList& other) {
  slices_.insert(slices_.end(), other.slices_.begin(), other.slices_.end());
  len_ += other.len_;
}

void BufferList::claim_append(BufferList& other) {
  for (auto& s : other.slices_) slices_.push_back(std::move(s));
  len_ += other.len_;
  other.slices_.clear();
  other.len_ = 0;
}

BufferList BufferList::substr(std::size_t off, std::size_t len) const {
  BufferList out;
  if (off >= len_) return out;
  len = std::min(len, len_ - off);
  std::size_t pos = 0;
  for (const auto& s : slices_) {
    if (len == 0) break;
    const std::size_t s_end = pos + s.size();
    if (s_end <= off) {
      pos = s_end;
      continue;
    }
    const std::size_t start_in_s = off > pos ? off - pos : 0;
    const std::size_t take = std::min(len, s.size() - start_in_s);
    out.append(s.subslice(start_in_s, take));
    off += take;
    len -= take;
    pos = s_end;
  }
  return out;
}

std::size_t BufferList::copy_out(std::size_t off, std::size_t len, void* dst) const {
  if (off >= len_) return 0;
  len = std::min(len, len_ - off);
  auto* out = static_cast<char*>(dst);
  std::size_t copied = 0;
  std::size_t pos = 0;
  for (const auto& s : slices_) {
    if (copied == len) break;
    const std::size_t s_end = pos + s.size();
    if (s_end <= off + copied) {
      pos = s_end;
      continue;
    }
    const std::size_t start_in_s = (off + copied) - pos;
    const std::size_t take = std::min(len - copied, s.size() - start_in_s);
    std::memcpy(out + copied, s.data() + start_in_s, take);
    copied += take;
    pos = s_end;
  }
  return copied;
}

std::string BufferList::to_string() const {
  std::string out;
  out.resize(len_);
  copy_out(0, len_, out.data());
  return out;
}

std::uint32_t BufferList::hash_slice(std::uint32_t crc, const Slice& s) {
  if (s.size() < Slice::kCrcCacheMin) return doceph::crc32c(crc, s.data(), s.size());
  const std::uint32_t writes = s.writes();
  const std::uint32_t own = doceph::crc32c(0, s.data(), s.size());
  s.cache_crc(writes, own);
  return crc32c_combine(crc, own, s.size());
}

std::uint32_t BufferList::crc32c(std::uint32_t seed, std::size_t* hashed) const {
  std::uint32_t crc = seed;
  std::size_t n = 0;
  for (const auto& s : slices_) {
    std::uint32_t own = 0;
    if (s.size() >= Slice::kCrcCacheMin && s.cached_crc(own)) {
      crc = crc32c_combine(crc, own, s.size());
      continue;
    }
    crc = hash_slice(crc, s);
    n += s.size();
  }
  if (hashed != nullptr) *hashed = n;
  return crc;
}

std::uint32_t BufferList::crc32c_verify(std::uint32_t seed) const {
  std::uint32_t crc = seed;
  for (const auto& s : slices_) crc = hash_slice(crc, s);
  return crc;
}

Slice BufferList::contiguous() const {
  if (slices_.size() == 1) return slices_.front();
  Slice s = Slice::allocate(len_);
  copy_out(0, len_, s.mutable_data());
  return s;
}

bool operator==(const BufferList& a, const BufferList& b) {
  if (a.len_ != b.len_) return false;
  // Compare without flattening: walk both ropes.
  std::size_t ia = 0, ib = 0, oa = 0, ob = 0, left = a.len_;
  while (left > 0) {
    const Slice& sa = a.slices_[ia];
    const Slice& sb = b.slices_[ib];
    const std::size_t n = std::min({sa.size() - oa, sb.size() - ob, left});
    if (std::memcmp(sa.data() + oa, sb.data() + ob, n) != 0) return false;
    oa += n;
    ob += n;
    left -= n;
    if (oa == sa.size()) {
      ++ia;
      oa = 0;
    }
    if (ob == sb.size()) {
      ++ib;
      ob = 0;
    }
  }
  return true;
}

bool BufferList::Cursor::copy(std::size_t len, void* dst) {
  if (remaining() < len) return false;
  bl_->copy_out(pos_, len, dst);
  pos_ += len;
  return true;
}

bool BufferList::Cursor::get_buffer_list(std::size_t len, BufferList& out) {
  if (remaining() < len) return false;
  out = bl_->substr(pos_, len);
  pos_ += len;
  return true;
}

bool BufferList::Cursor::skip(std::size_t len) {
  if (remaining() < len) return false;
  pos_ += len;
  return true;
}

}  // namespace doceph
