// In-memory span recorder for the traced run. The benchmark wraps every
// call it makes into a simcov layer in a span (name, start, end, parent,
// job id); nothing inside the library is instrumented. Spans stay in
// memory until the run ends and are then written out as JSON.
#pragma once

#include <chrono>
#include <cstddef>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::size_t id = 0;
  std::size_t parent = 0;  ///< Tracer::kNoParent for a job's root span
  std::size_t job = 0;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
};

/// Thread-safe: pool lanes open and close spans concurrently.
class Tracer {
 public:
  static constexpr std::size_t kNoParent =
      std::numeric_limits<std::size_t>::max();

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a job's root span.
  std::size_t begin_job(std::size_t job);
  /// Opens a span under `parent`; it inherits the parent's job id.
  std::size_t begin(std::string name, std::size_t parent);
  void end(std::size_t id);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes every span as a JSON array. Returns false on an I/O error.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] double now() const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; index == Span::id
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::size_t parent)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

/// Per span name, within one job.
struct NameStats {
  double total = 0.0;  ///< sum of durations (lanes add up)
  double self = 0.0;   ///< sum of self times
  double max = 0.0;    ///< longest single span
  std::size_t count = 0;
};

/// The decomposition of one traced job.
struct JobLedger {
  double wall = 0.0;         ///< the root span's duration
  double unaccounted = 0.0;  ///< root duration minus the union of its children
  std::map<std::string, NameStats> by_name;  ///< every span but the root
};

/// Builds the ledger of the job whose root span is `root`.
[[nodiscard]] JobLedger ledger(const std::vector<Span>& spans,
                               std::size_t root);

}  // namespace perfbench
