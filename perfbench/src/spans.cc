#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace ppj::perfbench {

SpanLog::Scope::Scope(SpanLog* log, const char* name, std::uint64_t request)
    : log_(log) {
  if (log_ == nullptr) return;
  Record record;
  record.parent = log_->open_.empty() ? 0 : log_->open_.back();
  record.name = name;
  record.request = request;
  record.start_ns = log_->NowNs();
  log_->records_.push_back(record);
  id_ = static_cast<std::uint32_t>(log_->records_.size());
  log_->open_.push_back(id_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->records_[id_ - 1].end_ns = log_->NowNs();
  log_->open_.pop_back();
}

void SpanLog::Scope::set_request(std::uint64_t request) {
  if (log_ != nullptr) log_->records_[id_ - 1].request = request;
}

std::int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::vector<SpanLog::Summary> SpanLog::Summarize() const {
  // Children of one client thread never overlap, so the part of a span its
  // children cover is the sum of their durations.
  std::vector<std::int64_t> covered(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent != 0) covered[r.parent - 1] += r.end_ns - r.start_ns;
  }
  std::map<std::string, Summary> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Summary& s = by_name[r.name];
    s.name = r.name;
    ++s.count;
    const std::int64_t duration = r.end_ns - r.start_ns;
    s.total_ms += static_cast<double>(duration) / 1e6;
    s.self_ms +=
        static_cast<double>(std::max<std::int64_t>(duration - covered[i], 0)) /
        1e6;
  }
  std::vector<Summary> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  std::sort(out.begin(), out.end(), [](const Summary& a, const Summary& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

bool SpanLog::Write(const std::string& path, std::size_t max_records) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::size_t request_spans = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    // Spans outside any request (set-up, loops, stage drives) are always
    // written, so every written span's parent is written too.
    if (r.request != 0 && request_spans++ >= max_records) continue;
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %u, \"name\": \"%s\", "
                 "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i + 1, r.parent, r.name,
                 static_cast<unsigned long long>(r.request),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace ppj::perfbench
