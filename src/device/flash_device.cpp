#include "device/flash_device.hpp"

#include <algorithm>

#include "core/interval.hpp"

namespace ipd {

FlashDevice::FlashDevice(std::size_t storage_bytes, std::size_t page_size,
                         std::size_t ram_budget)
    : storage_(storage_bytes), page_size_(page_size), ram_(ram_budget) {
  if (page_size == 0) {
    throw DeviceError("page size must be >= 1");
  }
}

void FlashDevice::load_image(ByteView image) {
  if (image.size() > storage_.size()) {
    throw DeviceError("image larger than device storage");
  }
  std::copy(image.begin(), image.end(), storage_.begin());
}

void FlashDevice::check_range(offset_t offset, std::size_t size) const {
  if (!range_fits(offset, size, storage_.size())) {
    throw DeviceError("storage access out of range: " + std::to_string(size) +
                      " bytes at " + std::to_string(offset) + " > " +
                      std::to_string(storage_.size()));
  }
}

std::uint64_t FlashDevice::pages_in(offset_t offset,
                                    std::size_t size) const noexcept {
  if (size == 0) return 0;
  const std::uint64_t first = offset / page_size_;
  const std::uint64_t last = (offset + size - 1) / page_size_;
  return last - first + 1;
}

void FlashDevice::read(offset_t offset, MutByteView out) {
  check_range(offset, out.size());
  std::copy_n(storage_.begin() + static_cast<std::ptrdiff_t>(offset),
              out.size(), out.begin());
  bytes_read_ += out.size();
  pages_read_ += pages_in(offset, out.size());
}

void FlashDevice::write(offset_t offset, ByteView data) {
  check_range(offset, data.size());
  if (fail_armed_ && data.size() > fail_after_) {
    // Tear the write: only the first fail_after_ bytes reach storage.
    const std::size_t landed = static_cast<std::size_t>(fail_after_);
    std::copy_n(data.begin(), landed,
                storage_.begin() + static_cast<std::ptrdiff_t>(offset));
    bytes_written_ += landed;
    pages_written_ += pages_in(offset, landed);
    fail_armed_ = false;
    fail_after_ = 0;
    throw PowerFailure();
  }
  std::copy(data.begin(), data.end(),
            storage_.begin() + static_cast<std::ptrdiff_t>(offset));
  bytes_written_ += data.size();
  pages_written_ += pages_in(offset, data.size());
  if (fail_armed_) {
    fail_after_ -= data.size();
  }
}

void FlashDevice::inject_power_failure_after(std::uint64_t bytes) noexcept {
  fail_armed_ = true;
  fail_after_ = bytes;
}

void FlashDevice::clear_power_failure() noexcept {
  fail_armed_ = false;
  fail_after_ = 0;
}

void FlashDevice::reset_stats() noexcept {
  bytes_read_ = 0;
  bytes_written_ = 0;
  pages_read_ = 0;
  pages_written_ = 0;
}

}  // namespace ipd
