// Simulated network-attached device: flash-like paged storage plus a
// strict RAM budget.
//
// The paper's whole premise is a device that can hold ONE file version in
// storage and has almost no scratch memory (§1). This model enforces that
// premise mechanically: storage reads/writes are counted per page (flash
// wear / IO cost), and every byte of working memory must be taken from a
// tracked RAM arena that throws DeviceError on over-budget allocation —
// so the updater tests literally cannot cheat with hidden scratch space.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace ipd {

/// RAM arena with a hard budget and high-water tracking.
class RamArena {
 public:
  explicit RamArena(std::size_t budget) noexcept : budget_(budget) {}

  std::size_t budget() const noexcept { return budget_; }
  std::size_t in_use() const noexcept { return in_use_; }
  std::size_t high_water() const noexcept { return high_water_; }

  /// RAII charge of `size` bytes against the budget, allocating nothing:
  /// how device memory held elsewhere (a parsed command table) is
  /// counted. Throws DeviceError when the budget cannot take it.
  class Charge {
   public:
    Charge(RamArena& arena, std::size_t size) : arena_(&arena), size_(size) {
      arena.charge(size);
    }
    ~Charge() {
      if (arena_ != nullptr) arena_->release(size_);
    }
    Charge(Charge&& other) noexcept
        : arena_(std::exchange(other.arena_, nullptr)), size_(other.size_) {}
    Charge& operator=(Charge&&) = delete;

   private:
    RamArena* arena_;
    std::size_t size_;
  };

  /// RAII allocation of `size` bytes of device RAM. The budget is charged
  /// before host memory is touched, so an over-budget request throws
  /// DeviceError without allocating.
  class Allocation {
   public:
    Allocation(RamArena& arena, std::size_t size)
        : charge_(arena, size), buffer_(size) {}

    MutByteView view() noexcept { return buffer_; }
    ByteView view() const noexcept { return buffer_; }
    std::size_t size() const noexcept { return buffer_.size(); }
    std::uint8_t* data() noexcept { return buffer_.data(); }

   private:
    Charge charge_;
    Bytes buffer_;
  };

  Allocation allocate(std::size_t size) { return Allocation(*this, size); }

 private:
  void charge(std::size_t size) {
    if (size > budget_ - in_use_) {
      throw DeviceError("device RAM budget exceeded: " +
                        std::to_string(in_use_) + " + " +
                        std::to_string(size) + " > " +
                        std::to_string(budget_) + " bytes");
    }
    in_use_ += size;
    high_water_ = std::max(high_water_, in_use_);
  }
  void release(std::size_t size) noexcept { in_use_ -= size; }

  std::size_t budget_;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
};

/// Paged storage with IO accounting.
class FlashDevice {
 public:
  FlashDevice(std::size_t storage_bytes, std::size_t page_size,
              std::size_t ram_budget);

  std::size_t storage_size() const noexcept { return storage_.size(); }
  std::size_t page_size() const noexcept { return page_size_; }
  RamArena& ram() noexcept { return ram_; }

  /// Install initial content (e.g. the currently deployed firmware);
  /// does not count toward IO statistics.
  void load_image(ByteView image);

  void read(offset_t offset, MutByteView out);
  void write(offset_t offset, ByteView data);

  /// Direct read-only view of storage, for end-of-test verification only
  /// (a real device's host tooling would read the flash back out).
  ByteView inspect() const noexcept { return storage_; }

  std::uint64_t bytes_read() const noexcept { return bytes_read_; }
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  std::uint64_t pages_touched_read() const noexcept { return pages_read_; }
  std::uint64_t pages_touched_write() const noexcept { return pages_written_; }

  void reset_stats() noexcept;

  /// Fault injection: after `bytes` more bytes have been written, tear
  /// the in-flight write (its prefix lands, the rest does not) and throw
  /// PowerFailure. Models power loss mid-update; recovery tests arm this,
  /// catch the throw, and resume with a fresh updater.
  void inject_power_failure_after(std::uint64_t bytes) noexcept;
  /// Disarm a pending injection.
  void clear_power_failure() noexcept;

  /// Thrown by the injected fault so tests can distinguish the simulated
  /// power loss from genuine device errors.
  class PowerFailure : public DeviceError {
   public:
    PowerFailure() : DeviceError("simulated power failure") {}
  };

 private:
  void check_range(offset_t offset, std::size_t size) const;
  std::uint64_t pages_in(offset_t offset, std::size_t size) const noexcept;

  Bytes storage_;
  std::size_t page_size_;
  RamArena ram_;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t pages_read_ = 0;
  std::uint64_t pages_written_ = 0;
  bool fail_armed_ = false;
  std::uint64_t fail_after_ = 0;
};

}  // namespace ipd
