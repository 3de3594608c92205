// Lane-sharded commutative sums for the per-page shared paths.
//
// Parallel event lanes (sim/lanes.hpp) bump a few shared accumulators on
// every guest eviction and VMD read: the per-link background bytes of the
// network and the page counts of a VMD server. As one relaxed atomic each,
// every bump is a locked read-modify-write on a cache line all lanes fight
// over. `LaneSums` gives each lane its own row instead:
//
//  * `rows` rows (one per lane of the owning cluster) of `columns` cells.
//    Each row starts on its own cache line and is padded to a whole number
//    of lines, so two lanes never write the same line.
//  * A row has a single writer: the thread running that lane, or — row 0 —
//    the coordinator thread between windows (the owner picks the row with
//    `sim::LaneCoordinator::thread_lane`). `add` is therefore a relaxed load
//    and store, not an RMW.
//  * Readers sum a column over every row with relaxed loads. After the lane
//    barrier the sum is exact and interleaving-independent; mid-window it
//    is as stale as the relaxed atomic it replaces.
//  * Cells are signed: a page stored on lane 1 and dropped on lane 2 leaves
//    +1 and -1 in two rows. Only column sums carry meaning.
//
// tools/lane_lint.py's shared-counter registry (LL004) names the members
// that must be declared with this type.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <type_traits>

#include "util/check.hpp"

namespace agile::util {

template <typename T>
class LaneSums {
  static_assert(std::is_signed_v<T>,
                "rows may go negative: a count raised on one lane may be "
                "lowered on another");

 public:
  LaneSums() : LaneSums(1, 0) {}
  LaneSums(std::size_t rows, std::size_t columns) { reshape(rows, columns); }

  LaneSums(const LaneSums&) = delete;
  LaneSums& operator=(const LaneSums&) = delete;

  std::size_t rows() const { return rows_; }
  std::size_t columns() const { return columns_; }

  /// Re-shapes to `rows` × `columns`. Each surviving column's total moves to
  /// row 0; every other cell starts at zero. Single-threaded only (set-up,
  /// or the coordinator between windows).
  void reshape(std::size_t rows, std::size_t columns) {
    AGILE_CHECK(rows >= 1);
    const std::size_t stride = (columns + kCellsPerLine - 1) / kCellsPerLine;
    auto lines = std::make_unique<Line[]>(rows * (stride == 0 ? 1 : stride));
    for (std::size_t c = 0; c < columns && c < columns_; ++c) {
      lines[c / kCellsPerLine].cell[c % kCellsPerLine].store(
          sum(c), std::memory_order_relaxed);
    }
    lines_ = std::move(lines);
    rows_ = rows;
    columns_ = columns;
    stride_ = stride;
  }

  /// Adds `d` to `row`'s cell of `column`. Only the row's single writer may
  /// call this (see the file comment).
  void add(std::size_t row, std::size_t column, T d) {
    std::atomic<T>& c = cell(row, column);
    c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }

  /// Total of `column` over every row.
  T sum(std::size_t column) const {
    T total = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
      total += cell(r, column).load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every cell. Single-threaded only, like `reshape`.
  void reset() {
    for (std::size_t l = 0; l < rows_ * stride_; ++l) {
      for (std::atomic<T>& c : lines_[l].cell) {
        c.store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  // A fixed 64 rather than std::hardware_destructive_interference_size: the
  // latter varies with compiler flags, which GCC warns about in headers.
  static constexpr std::size_t kLineBytes = 64;
  static constexpr std::size_t kCellsPerLine = kLineBytes / sizeof(T);
  struct alignas(kLineBytes) Line {
    std::atomic<T> cell[kCellsPerLine] = {};
  };

  std::atomic<T>& cell(std::size_t row, std::size_t column) {
    return lines_[row * stride_ + column / kCellsPerLine]
        .cell[column % kCellsPerLine];
  }
  const std::atomic<T>& cell(std::size_t row, std::size_t column) const {
    return lines_[row * stride_ + column / kCellsPerLine]
        .cell[column % kCellsPerLine];
  }

  std::unique_ptr<Line[]> lines_;
  std::size_t rows_ = 0;
  std::size_t columns_ = 0;
  std::size_t stride_ = 0;  ///< Lines per row.
};

}  // namespace agile::util
