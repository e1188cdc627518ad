// In-memory spans for the traced run.
//
// Each thread owns one SpanBuffer and is its only writer. A span has a
// name, start, end, a parent (an index into the same buffer) and an id
// shared by every span of one request. `core.query` spans also carry the
// dataset version and the QueryMetrics the call returned. Buffers are
// merged and written out after the run.
#ifndef GCP_PERFBENCH_TRACE_HPP_
#define GCP_PERFBENCH_TRACE_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"

namespace gcp::perfbench {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;  ///< Since the trace epoch.
  std::int64_t end_ns = 0;
  std::uint32_t version = 0;  ///< Dataset version at start (core.query).
  QueryMetrics metrics;       ///< Filled for core.query only.

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint32_t thread) : thread_(thread) {}

  /// Appends a finished span and returns its index.
  std::int32_t Add(const char* name, std::uint64_t id, std::int32_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
    Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  Span& at(std::int32_t index) { return spans_[index]; }

  std::uint32_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t thread_;
  std::vector<Span> spans_;
};

/// Outcome of the stage-accounting check.
struct AccountingReport {
  std::uint64_t queries = 0;
  /// Queries whose QueryMetrics stage timers sum to more than the span
  /// around the Query call.
  std::uint64_t stage_overruns = 0;
  /// Client time outside the engine's calls and the pauses (bookkeeping,
  /// span appends) ÷ client time outside the pauses: the self time of the
  /// bench.client span.
  double harness_frac = 0.0;

  bool ok() const { return stage_overruns == 0; }
};

/// Sum of every stage timer of one Query call, maintenance included.
std::int64_t StageSumNs(const QueryMetrics& m);

/// Self time of every span of one buffer (duration minus its children).
std::vector<std::int64_t> SelfTimes(const SpanBuffer& buffer);

/// Checks every core.query span of the client's buffer against its stage
/// timers and measures the client's harness time.
AccountingReport CheckAccounting(const SpanBuffer& client);

/// Writes every span as Chrome trace-event JSON (chrome://tracing,
/// Perfetto). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanBuffer*>& buffers);

}  // namespace gcp::perfbench

#endif  // GCP_PERFBENCH_TRACE_HPP_
