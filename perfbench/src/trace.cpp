#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "stats.hpp"

namespace perfbench {

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::size_t Tracer::begin_job(std::size_t job) {
  const double t = now();
  const std::lock_guard lock(mutex_);
  const std::size_t id = spans_.size();
  spans_.push_back(Span{"job", id, kNoParent, job, t, t});
  return id;
}

std::size_t Tracer::begin(std::string name, std::size_t parent) {
  const double t = now();
  const std::lock_guard lock(mutex_);
  const std::size_t id = spans_.size();
  spans_.push_back(Span{std::move(name), id, parent, spans_.at(parent).job, t, t});
  return id;
}

void Tracer::end(std::size_t id) {
  const double t = now();
  const std::lock_guard lock(mutex_);
  spans_.at(id).end = t;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  const auto all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %zu, \"parent\": %lld, "
                 "\"job\": %zu, \"start\": %.9f, \"end\": %.9f}%s\n",
                 s.name.c_str(), s.id,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 s.job, s.start, s.end, i + 1 < all.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

JobLedger ledger(const std::vector<Span>& spans, std::size_t root) {
  const Span& job = spans.at(root);
  std::unordered_map<std::size_t, std::vector<Interval>> children;
  for (const Span& s : spans) {
    if (s.job == job.job && s.parent != Tracer::kNoParent) {
      children[s.parent].push_back(Interval{s.start, s.end});
    }
  }
  const auto self_of = [&](const Span& s) {
    const auto it = children.find(s.id);
    const Interval iv{s.start, s.end};
    return it == children.end() ? iv.end - iv.start
                                : self_time(iv, it->second);
  };
  JobLedger out;
  out.wall = job.end - job.start;
  out.unaccounted = self_of(job);
  for (const Span& s : spans) {
    if (s.job != job.job || s.id == root || s.parent == Tracer::kNoParent) {
      continue;
    }
    NameStats& n = out.by_name[s.name];
    const double d = s.end - s.start;
    n.total += d;
    n.self += self_of(s);
    n.max = std::max(n.max, d);
    ++n.count;
  }
  return out;
}

}  // namespace perfbench
