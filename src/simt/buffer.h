// RAII device-memory buffer. Backed by host memory (the simulator runs on
// the CPU) but accounted against the device's global-memory capacity, so
// exceeding the card aborts exactly like a real cudaMalloc failure. Like
// cudaMalloc it leaves the contents unset: whoever reads an element first
// writes it (the host, a kernel, or zero()).
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "simt/device.h"

namespace gm::simt {

template <typename T>
class Buffer {
  // Elements are implicit-lifetime: raw storage holds them without a
  // constructor run, and freeing it needs no destructor run.
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  Buffer(Device& dev, std::size_t count) : dev_(&dev), size_(count) {
    // Account against device capacity *before* touching host memory, so an
    // oversized request fails with DeviceOutOfMemory instead of bad_alloc.
    dev_->allocate(count * sizeof(T));
    try {
      data_ = std::allocator<T>{}.allocate(count);
    } catch (...) {
      dev_->release(count * sizeof(T));
      throw;
    }
  }
  ~Buffer() {
    if (dev_ == nullptr) return;
    std::allocator<T>{}.deallocate(data_, size_);
    dev_->release(bytes());
  }

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  Buffer(Buffer&& other) noexcept
      : dev_(std::exchange(other.dev_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  Buffer& operator=(Buffer&&) = delete;

  std::size_t size() const noexcept { return size_; }
  std::size_t bytes() const noexcept { return size_ * sizeof(T); }

  std::span<T> span() noexcept { return {data_, size_}; }
  std::span<const T> span() const noexcept { return {data_, size_}; }
  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  /// cudaMemset equivalent: zero-fill with modeled cost.
  void zero() {
    std::memset(data_, 0, bytes());
    dev_->account_memset(bytes());
  }

  /// cudaMemcpy H->D with modeled PCIe cost.
  void upload(std::span<const T> host) {
    std::memcpy(data_, host.data(),
                std::min(bytes(), host.size() * sizeof(T)));
    dev_->account_copy(host.size() * sizeof(T), CopyDir::kH2D);
  }

  /// cudaMemcpy D->H with modeled PCIe cost.
  std::vector<T> download(std::size_t count) const {
    count = std::min(count, size_);
    dev_->account_copy(count * sizeof(T), CopyDir::kD2H);
    return std::vector<T>(data_, data_ + count);
  }

 private:
  Device* dev_;
  T* data_ = nullptr;
  std::size_t size_;
};

}  // namespace gm::simt
