// Flat small-map from destination port to packet count.
//
// The per-flow and per-campaign port tally is overwhelmingly tiny — 83%
// of sources scan exactly one port (Fig. 3) — yet `std::unordered_map`
// pays a node allocation per port. This map keeps the first
// `kInlineCapacity` (port, count) entries in an inline array and
// promotes to a linear-probing flat table only for genuine multi-port
// scanners (vertical scans promote once and then stay flat).
//
// The API mirrors the subset of `std::unordered_map<uint16_t, uint64_t>`
// the analysis layer uses: `operator[]`, `at`, `contains`, `size`,
// `clear`, and range-for iteration yielding `(port, packets)` pairs.
// `clear()` keeps the promoted backing store so pooled flows recycle it.
//
// Two bulk operations serve the rollup store, which moves whole maps:
// `reserve(n)` sizes the table once for a known row count (a decoder
// reading a stored map), and `sorted_rows` emits the rows in ascending
// port order without a comparison sort (a writer, whose bytes must not
// depend on the table layout).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace synscan::core {

class PortPacketMap {
 public:
  /// Inline capacity before promotion. Eight entries cover everything
  /// but vertical/multi-service scanners.
  static constexpr std::uint32_t kInlineCapacity = 8;
  /// Every 16-bit port: the most rows a map can hold.
  static constexpr std::size_t kMaxPorts = 65536;

  using value_type = std::pair<std::uint16_t, std::uint64_t>;

  /// Adds `n` packets to `port`; returns true when the port is new.
  bool add(std::uint16_t port, std::uint64_t n) {
    std::uint64_t* cell = find_cell(port);
    if (cell != nullptr) {
      *cell += n;
      return false;
    }
    *insert_new(port) = n;
    return true;
  }

  /// Insert-or-lookup, `std::unordered_map` style.
  std::uint64_t& operator[](std::uint16_t port) {
    std::uint64_t* cell = find_cell(port);
    return cell != nullptr ? *cell : *insert_new(port);
  }

  /// Packet count for `port`; throws `std::out_of_range` when absent.
  [[nodiscard]] std::uint64_t at(std::uint16_t port) const {
    const std::uint64_t* cell = find_cell(port);
    if (cell == nullptr) throw std::out_of_range("PortPacketMap::at: port not present");
    return *cell;
  }

  /// Packet count for `port`, 0 when absent.
  [[nodiscard]] std::uint64_t get(std::uint16_t port) const noexcept {
    const std::uint64_t* cell = find_cell(port);
    return cell == nullptr ? 0 : *cell;
  }

  [[nodiscard]] bool contains(std::uint16_t port) const noexcept {
    return find_cell(port) != nullptr;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return promoted_ ? promoted_size_ : inline_size_;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] bool promoted() const noexcept { return promoted_; }
  [[nodiscard]] std::size_t slot_capacity() const noexcept { return slots_.capacity(); }

  /// Empties the map but keeps any promoted backing store allocated.
  void clear() noexcept {
    inline_size_ = 0;
    promoted_ = false;
    promoted_size_ = 0;
    slots_.clear();  // keeps capacity
  }

  /// Sizes the map so that it holds `n` ports in all without regrowing:
  /// a map past its inline capacity gets the smallest table that adding
  /// `n` ports one by one would have grown to. `n` is capped at
  /// `kMaxPorts`, so a forged count cannot size a map past every port.
  void reserve(std::size_t n) {
    n = std::min(n, kMaxPorts);
    if (!promoted_ && n <= kInlineCapacity) return;
    std::size_t capacity = kMinSlots;
    while (n * 10 >= capacity * 7) capacity *= 2;
    if (!promoted_) {
      promote(capacity);
    } else if (capacity > slots_.size()) {
      rehash(capacity);
    }
  }

  /// Writes the rows into `rows` in ascending port order, replacing its
  /// contents; `rows` is a buffer the caller reuses across maps. Inline
  /// rows (at most eight) take an insertion sort; a promoted table takes
  /// a two-pass LSD radix sort on the port's low and high byte through
  /// the buffer's second half, skipping a pass whose byte is the same in
  /// every row.
  void sorted_rows(std::vector<value_type>& rows) const {
    rows.clear();
    if (!promoted_) {
      for (std::uint32_t i = 0; i < inline_size_; ++i) {
        const value_type row{inline_[i].port, inline_[i].packets};
        rows.push_back(row);
        auto at = rows.size() - 1;
        for (; at > 0 && rows[at - 1].first > row.first; --at) rows[at] = rows[at - 1];
        rows[at] = row;
      }
      return;
    }
    const std::size_t n = promoted_size_;
    if (n == 0) return;
    rows.resize(2 * n);
    std::array<std::array<std::uint32_t, 256>, 2> counts{};
    value_type* from = rows.data();
    value_type* to = from + n;
    std::size_t at = 0;
    for (const auto& slot : slots_) {
      if (slot.key == kEmptyKey) continue;
      from[at++] = {static_cast<std::uint16_t>(slot.key), slot.packets};
      ++counts[0][slot.key & 0xffu];
      ++counts[1][slot.key >> 8];
    }
    for (std::uint32_t shift = 0; shift < 16; shift += 8) {
      const auto digit = [shift](const value_type& row) {
        return (std::uint32_t{row.first} >> shift) & 0xffu;
      };
      auto& offsets = counts[shift / 8];
      if (offsets[digit(from[0])] == n) continue;
      std::uint32_t offset = 0;
      for (auto& count : offsets) offset += std::exchange(count, offset);
      for (std::size_t i = 0; i < n; ++i) to[offsets[digit(from[i])]++] = from[i];
      std::swap(from, to);
    }
    if (from != rows.data()) std::copy(from, from + n, rows.data());
    rows.resize(n);
  }

  /// Forward iterator yielding `(port, packets)` pairs by value, in
  /// unspecified order (like the `unordered_map` it replaces).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PortPacketMap::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    const_iterator() = default;
    const_iterator(const PortPacketMap* map, std::size_t pos) : map_(map), pos_(pos) {
      skip_empty();
    }

    [[nodiscard]] value_type operator*() const {
      if (!map_->promoted_) {
        const auto& entry = map_->inline_[pos_];
        return {entry.port, entry.packets};
      }
      const auto& slot = map_->slots_[pos_];
      return {static_cast<std::uint16_t>(slot.key), slot.packets};
    }

    const_iterator& operator++() {
      ++pos_;
      skip_empty();
      return *this;
    }
    const_iterator operator++(int) {
      auto copy = *this;
      ++*this;
      return copy;
    }

    [[nodiscard]] bool operator==(const const_iterator& other) const noexcept {
      return pos_ == other.pos_;
    }
    [[nodiscard]] bool operator!=(const const_iterator& other) const noexcept {
      return pos_ != other.pos_;
    }

   private:
    void skip_empty() noexcept {
      if (map_ == nullptr || !map_->promoted_) return;
      while (pos_ < map_->slots_.size() && map_->slots_[pos_].key == kEmptyKey) ++pos_;
    }

    const PortPacketMap* map_ = nullptr;
    std::size_t pos_ = 0;
  };

  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept {
    return {this, promoted_ ? slots_.size() : inline_size_};
  }

 private:
  struct InlineEntry {
    std::uint16_t port = 0;
    std::uint64_t packets = 0;
  };
  struct Slot {
    std::uint32_t key = kEmptyKey;  ///< port, or kEmptyKey when free
    std::uint64_t packets = 0;
  };
  static constexpr std::uint32_t kEmptyKey = 0xffffffffu;
  /// Slots of a freshly promoted table.
  static constexpr std::size_t kMinSlots = 32;

  [[nodiscard]] static std::uint64_t hash(std::uint16_t port) noexcept {
    return (static_cast<std::uint64_t>(port) * 0x9e3779b97f4a7c15ull) >> 13;
  }

  [[nodiscard]] const std::uint64_t* find_cell(std::uint16_t port) const noexcept {
    if (!promoted_) {
      for (std::uint32_t i = 0; i < inline_size_; ++i) {
        if (inline_[i].port == port) return &inline_[i].packets;
      }
      return nullptr;
    }
    const std::uint64_t mask = slots_.size() - 1;
    for (std::uint64_t index = hash(port) & mask;; index = (index + 1) & mask) {
      if (slots_[index].key == port) return &slots_[index].packets;
      if (slots_[index].key == kEmptyKey) return nullptr;
    }
  }
  [[nodiscard]] std::uint64_t* find_cell(std::uint16_t port) noexcept {
    return const_cast<std::uint64_t*>(std::as_const(*this).find_cell(port));
  }

  /// Inserts a fresh key (must not be present) and returns its cell,
  /// zero-initialized.
  std::uint64_t* insert_new(std::uint16_t port) {
    if (!promoted_) {
      if (inline_size_ < kInlineCapacity) {
        inline_[inline_size_] = {port, 0};
        return &inline_[inline_size_++].packets;
      }
      promote(kMinSlots);
    }
    if ((promoted_size_ + 1) * 10 >= slots_.size() * 7) rehash(slots_.size() * 2);
    const std::uint64_t mask = slots_.size() - 1;
    std::uint64_t index = hash(port) & mask;
    while (slots_[index].key != kEmptyKey) index = (index + 1) & mask;
    slots_[index] = {port, 0};
    ++promoted_size_;
    return &slots_[index].packets;
  }

  /// Moves the inline entries into a table of at least `capacity` (a
  /// power of two) slots.
  void promote(std::size_t capacity) {
    // Reuse a recycled buffer when present, rounded down to a power of
    // two so the probe mask stays valid whatever the allocator did.
    while (capacity * 2 <= slots_.capacity()) capacity *= 2;
    slots_.assign(capacity, Slot{});
    promoted_ = true;
    promoted_size_ = 0;
    const std::uint64_t mask = slots_.size() - 1;
    for (std::uint32_t i = 0; i < inline_size_; ++i) {
      std::uint64_t index = hash(inline_[i].port) & mask;
      while (slots_[index].key != kEmptyKey) index = (index + 1) & mask;
      slots_[index] = {inline_[i].port, inline_[i].packets};
      ++promoted_size_;
    }
    inline_size_ = 0;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(capacity, Slot{});
    const std::uint64_t mask = slots_.size() - 1;
    for (const auto& slot : old) {
      if (slot.key == kEmptyKey) continue;
      std::uint64_t index = hash(static_cast<std::uint16_t>(slot.key)) & mask;
      while (slots_[index].key != kEmptyKey) index = (index + 1) & mask;
      slots_[index] = slot;
    }
  }

  std::uint32_t inline_size_ = 0;
  bool promoted_ = false;
  std::size_t promoted_size_ = 0;
  std::array<InlineEntry, kInlineCapacity> inline_{};
  std::vector<Slot> slots_;
};

}  // namespace synscan::core
