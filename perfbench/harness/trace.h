// Spans the harness records around its own calls into synscan layers.
//
// Single-threaded by design: a traced run makes every call one at a time
// on the main thread, so the spans give each layer's busy time. Spans
// are kept in memory and written out once, at the end of the run. A
// layer's self time is its span's duration minus the time its child
// spans cover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "core/observers.h"

namespace perfbench {

class Tracer {
 public:
  /// A disabled tracer records nothing; its scopes cost one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, std::uint32_t name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index of the span, for root-operation queries.
    [[nodiscard]] std::size_t index() const noexcept { return index_; }

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  [[nodiscard]] std::uint32_t intern(std::string_view name);
  [[nodiscard]] Scope span(std::uint32_t name) { return Scope(enabled_ ? this : nullptr, name); }
  [[nodiscard]] Scope span(std::string_view name) { return span(intern(name)); }

  /// Summed self time of the spans named `name` under `root`.
  [[nodiscard]] double self_s(std::size_t root, std::string_view name) const;
  /// Share of `root`'s wall time its child spans do not cover: the
  /// harness glue between layer calls.
  [[nodiscard]] double uncovered_share(std::size_t root) const;
  /// Self time per span name under `root`, as a JSON object.
  [[nodiscard]] std::string self_json(std::size_t root) const;

  /// Writes every span as JSON: name, start and end in ns since the
  /// first span, parent index (-1 for roots).
  void write(const std::filesystem::path& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t parent = -1;
    std::size_t root = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;
  };

  std::size_t begin(std::uint32_t name);
  void end(std::size_t index);

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// A `ProbeObserver` that forwards to another inside a span: added with
/// `Pipeline::add_observer`, it measures one observer's share of
/// `feed_probes` without touching the program.
class TimedObserver final : public synscan::core::ProbeObserver {
 public:
  TimedObserver(synscan::core::ProbeObserver& inner, Tracer& tracer, std::string_view name)
      : inner_(inner), tracer_(tracer), name_(tracer.intern(name)) {}

  void on_probe(const synscan::telescope::ScanProbe& probe) override {
    const auto scope = tracer_.span(name_);
    inner_.on_probe(probe);
  }
  void observe_batch(const synscan::telescope::ProbeBatch& batch,
                     std::span<const std::uint32_t> rows) override {
    const auto scope = tracer_.span(name_);
    inner_.observe_batch(batch, rows);
  }

 private:
  synscan::core::ProbeObserver& inner_;
  Tracer& tracer_;
  std::uint32_t name_;
};

}  // namespace perfbench
