#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ppj::perfbench {

/// Spans the benchmark records around its own calls into the program's
/// modules (traced mode only). One client thread records them, so spans
/// nest strictly. They stay in memory until Write at exit.
class SpanLog {
 public:
  struct Record {
    std::uint32_t parent = 0;  ///< 1-based id of the enclosing span; 0 = none.
    const char* name = "";     ///< Static string: "<module>.<call>".
    std::uint64_t request = 0;  ///< Ticket id shared by one request's spans.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Opens a span for the lifetime of the scope; inert when `log` is null.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_request(std::uint64_t request);

   private:
    SpanLog* log_;
    std::uint32_t id_ = 0;
  };

  /// Per span name: how many, their total time and their self time (a
  /// span minus the part its child spans cover).
  struct Summary {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::vector<Summary> Summarize() const;

  /// Writes every span outside a request and the first `max_records`
  /// request spans, one JSON object per line, so a long service-mix run
  /// stays a few MB. False on I/O failure.
  bool Write(const std::string& path, std::size_t max_records) const;

  std::size_t size() const { return records_.size(); }

 private:
  std::int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Record> records_;
  std::vector<std::uint32_t> open_;
};

}  // namespace ppj::perfbench

#endif  // PERFBENCH_SPANS_H_
