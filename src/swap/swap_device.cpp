#include "swap/swap_device.hpp"

namespace agile::swap {

SwapSlot SlotAllocator::allocate() {
  SwapSlot s;
  if (!free_list_.empty()) {
    s = free_list_.back();
    free_list_.pop_back();
  } else {
    AGILE_CHECK_MSG(next_fresh_ < capacity_, "swap device full");
    s = next_fresh_++;
    if (s % 64 == 0) in_use_.push_back(0);
  }
  in_use_[s / 64] |= std::uint64_t{1} << (s % 64);
  ++used_;
  return s;
}

void SlotAllocator::release(SwapSlot slot) {
  AGILE_CHECK(slot != kNoSlot && slot < next_fresh_);
  AGILE_CHECK(used_ > 0);
  std::uint64_t& word = in_use_[slot / 64];
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  AGILE_CHECK_MSG((word & bit) != 0, "releasing a free swap slot");
  word &= ~bit;
  --used_;
  free_list_.push_back(slot);
}

LocalSwapDevice::LocalSwapDevice(std::string name,
                                 std::shared_ptr<storage::SsdModel> ssd,
                                 Bytes capacity)
    : name_(std::move(name)), ssd_(std::move(ssd)), slots_(pages_for(capacity)) {
  AGILE_CHECK(ssd_ != nullptr);
}

SwapSlot LocalSwapDevice::allocate_slot() { return slots_.allocate(); }

void LocalSwapDevice::free_slot(SwapSlot slot) { slots_.release(slot); }

SimTime LocalSwapDevice::read_page(SwapSlot slot) {
  AGILE_CHECK(slot != kNoSlot);
  ++stats_.reads;
  ++stats_.window_reads;
  stats_.bytes_read += kPageSize;
  stats_.window_bytes_read += kPageSize;
  return ssd_->submit_read(kPageSize);
}

SimTime LocalSwapDevice::read_page_sequential(SwapSlot slot) {
  AGILE_CHECK(slot != kNoSlot);
  ++stats_.reads;
  ++stats_.window_reads;
  stats_.bytes_read += kPageSize;
  stats_.window_bytes_read += kPageSize;
  if (readahead_counter_++ % kReadaheadPages == 0) {
    // One clustered I/O prefetches the window.
    return ssd_->submit_read(kReadaheadPages * kPageSize);
  }
  return 2;  // µs: copy from the prefetched cluster
}

void LocalSwapDevice::write_page(SwapSlot slot) {
  AGILE_CHECK(slot != kNoSlot);
  ++stats_.writes;
  ++stats_.window_writes;
  stats_.bytes_written += kPageSize;
  stats_.window_bytes_written += kPageSize;
  ssd_->submit_write(kPageSize);  // write-behind: latency absorbed by queue
}

}  // namespace agile::swap
