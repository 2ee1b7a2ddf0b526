// Flat accumulator map: open-addressing index over a dense entry array.
//
// The streaming accumulators (PortTally, DailyPortSeries,
// VolatilityTracker) are insert-or-increment maps fed once per probe and
// drained once per run — they never erase. `std::unordered_map`
// pays a node allocation per key and chases pointers on every lookup;
// this map keeps (key, value) entries contiguous in insertion order and
// probes a flat slot array of (key, entry-index) pairs, so the feed path
// touches two small arrays and iteration is a linear scan with a
// deterministic order.
//
// Not a general map: no erase, and references returned by
// `find_or_insert`/`operator[]` are invalidated by the next insertion
// (the dense entry array may grow). Accumulate immediately, as in
// `++map[key]`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace synscan::core {

template <typename Key, typename Value>
class FlatHashMap {
 public:
  using value_type = std::pair<Key, Value>;

  FlatHashMap() : slots_(kInitialCapacity, Slot{}) {}

  /// Looks `key` up, inserting a default-constructed value when absent.
  /// Returns the value plus whether it was inserted. The reference dies
  /// at the next insertion.
  std::pair<Value&, bool> find_or_insert(Key key) {
    if ((entries_.size() + 1) * 10 >= slots_.size() * 7) rehash(slots_.size() * 2);
    const std::uint64_t mask = slots_.size() - 1;
    std::uint64_t index = hash(key) & mask;
    while (slots_[index].entry != kEmpty) {
      if (slots_[index].key == key) return {entries_[slots_[index].entry].second, false};
      index = (index + 1) & mask;
    }
    slots_[index] = {key, static_cast<std::uint32_t>(entries_.size())};
    entries_.emplace_back(key, Value{});
    return {entries_.back().second, true};
  }

  /// Insert-or-lookup, `std::unordered_map` style.
  Value& operator[](Key key) { return find_or_insert(key).first; }

  /// Pointer to the value for `key`, or nullptr when absent.
  [[nodiscard]] const Value* find(Key key) const noexcept {
    const std::uint64_t mask = slots_.size() - 1;
    for (std::uint64_t index = hash(key) & mask; slots_[index].entry != kEmpty;
         index = (index + 1) & mask) {
      if (slots_[index].key == key) return &entries_[slots_[index].entry].second;
    }
    return nullptr;
  }

  [[nodiscard]] bool contains(Key key) const noexcept { return find(key) != nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Entries in insertion order (deterministic for a given feed).
  [[nodiscard]] auto begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] auto end() const noexcept { return entries_.end(); }

  /// Calls `f(key, const Value&)` in insertion order.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& [key, value] : entries_) f(key, value);
  }

  /// Calls `f(key, Value&)` in insertion order; `f` may move the value
  /// out (the keys and the index stay as they are).
  template <typename F>
  void for_each(F&& f) {
    for (auto& [key, value] : entries_) f(std::as_const(key), value);
  }

  void clear() noexcept {
    entries_.clear();
    for (auto& slot : slots_) slot.entry = kEmpty;
  }

 private:
  struct Slot {
    Key key = Key{};
    std::uint32_t entry = kEmpty;
  };

  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::size_t kInitialCapacity = 64;

  [[nodiscard]] static std::uint64_t hash(Key key) noexcept {
    // splitmix64 finalizer: keys are packed bit-fields (ports, packed
    // country codes, (block, week) pairs), so mix every input bit.
    auto x = static_cast<std::uint64_t>(key);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void rehash(std::size_t new_capacity) {
    slots_.assign(new_capacity, Slot{});
    const std::uint64_t mask = slots_.size() - 1;
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
      std::uint64_t index = hash(entries_[i].first) & mask;
      while (slots_[index].entry != kEmpty) index = (index + 1) & mask;
      slots_[index] = {entries_[i].first, i};
    }
  }

  std::vector<Slot> slots_;
  std::vector<value_type> entries_;
};

}  // namespace synscan::core
