#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, std::uint32_t name) : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->begin(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->end(index_);
}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t Tracer::begin(std::uint32_t name) {
  Span span;
  span.name = name;
  if (!open_.empty()) {
    span.parent = static_cast<std::int64_t>(open_.back());
    span.root = spans_[open_.back()].root;
  } else {
    span.root = spans_.size();
  }
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = now_ns();
  return spans_.size() - 1;
}

void Tracer::end(std::size_t index) {
  auto& span = spans_[index];
  span.end_ns = now_ns();
  open_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns += span.end_ns - span.start_ns;
  }
}

double Tracer::self_s(std::size_t root, std::string_view name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return 0;
  const auto id = static_cast<std::uint32_t>(it - names_.begin());
  std::int64_t total = 0;
  for (const auto& span : spans_) {
    if (span.root == root && span.name == id) {
      total += span.end_ns - span.start_ns - span.child_ns;
    }
  }
  return static_cast<double>(total) * 1e-9;
}

double Tracer::uncovered_share(std::size_t root) const {
  if (root >= spans_.size()) return 1;
  const auto& span = spans_[root];
  const auto wall = span.end_ns - span.start_ns;
  return wall <= 0 ? 1 : static_cast<double>(wall - span.child_ns) / static_cast<double>(wall);
}

std::string Tracer::self_json(std::size_t root) const {
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = root; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    if (span.root != root) continue;
    self[names_[span.name]] += span.end_ns - span.start_ns - span.child_ns;
  }
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, ns] : self) {
    out << (first ? "" : ",") << "\"" << name << "\":" << json_number(static_cast<double>(ns) * 1e-9);
    first = false;
  }
  out << "}";
  return out.str();
}

void Tracer::write(const std::filesystem::path& path) const {
  if (path.empty() || spans_.empty()) return;
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::trunc);
  const auto origin = spans_.front().start_ns;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    out << "{\"name\":\"" << names_[span.name] << "\",\"start_ns\":" << span.start_ns - origin
        << ",\"end_ns\":" << span.end_ns - origin << ",\"parent\":" << span.parent << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace perfbench
