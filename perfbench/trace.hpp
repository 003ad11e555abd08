#pragma once

// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library's public functions; nothing inside the library is
// instrumented. Each span holds a name, start, end, parent span and the
// id of the protocol instance (load instance or sweep schedule) it
// belongs to, so spans of one instance can be grouped. Spans stay in
// memory and are written out once, after the measured work ends.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint64_t kNoInstance =
      std::numeric_limits<std::uint64_t>::max();

  /// A disabled tracer records nothing: begin() returns kNoParent and
  /// end() ignores it, so traced and untraced code share one path.
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (the `parent` of nested spans).
  std::uint32_t begin(const std::string& name,
                      std::uint32_t parent = kNoParent,
                      std::uint64_t instance = kNoInstance) {
    if (!enabled_) return kNoParent;
    spans_.push_back({intern(name), parent, instance, now_ns(), -1});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  void end(std::uint32_t span) {
    if (span != kNoParent) spans_[span].end_ns = now_ns();
  }

  /// Summed duration, in seconds, of every span named `name`.
  double total_s(const std::string& name) const {
    const auto it = ids_.find(name);
    if (it == ids_.end()) return 0.0;
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.name == it->second && s.end_ns >= 0) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Writes every span as one tab-separated line:
  /// id, parent (-1 = none), name, instance (-1 = none), start_ns, end_ns.
  /// Times are nanoseconds since the tracer was created.
  bool write_tsv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "id\tparent\tname\tinstance\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t'
          << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
          << '\t' << names_[s.name] << '\t'
          << (s.instance == kNoInstance ? -1
                                        : static_cast<long long>(s.instance))
          << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
    return static_cast<bool>(out);
  }

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint64_t instance;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  std::uint32_t intern(const std::string& name) {
    const auto [it, inserted] =
        ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
};

/// Closes a span when it goes out of scope.
class SpanGuard {
 public:
  SpanGuard(Tracer& tracer, const std::string& name,
            std::uint32_t parent = Tracer::kNoParent,
            std::uint64_t instance = Tracer::kNoInstance)
      : tracer_(tracer), id_(tracer.begin(name, parent, instance)) {}
  ~SpanGuard() { tracer_.end(id_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
