#include "trace.hpp"

#include <cstdio>
#include <memory>
#include <string_view>

namespace gcp::perfbench {

std::int64_t StageSumNs(const QueryMetrics& m) {
  return m.QueryTimeNs() + m.t_maintenance_ns;
}

std::vector<std::int64_t> SelfTimes(const SpanBuffer& buffer) {
  const auto& spans = buffer.spans();
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns();
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.duration_ns();
  }
  return self;
}

AccountingReport CheckAccounting(const SpanBuffer& client) {
  AccountingReport r;
  double harness = 0, active = 0;
  const std::vector<std::int64_t> self = SelfTimes(client);
  const auto& spans = client.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view name(s.name);
    if (name == "core.query") {
      ++r.queries;
      if (StageSumNs(s.metrics) > s.duration_ns()) ++r.stage_overruns;
    } else if (name == "bench.client") {
      harness += static_cast<double>(self[i]);
      active += static_cast<double>(s.duration_ns());
    } else if (name == "bench.pause") {
      active -= static_cast<double>(s.duration_ns());
    }
  }
  r.harness_frac = active > 0 ? harness / active : 0.0;
  return r;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanBuffer*>& buffers) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fputs("{\"traceEvents\":[\n", f.get());
  bool first = true;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      std::fprintf(f.get(),
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu",
                   first ? "" : ",\n", s.name, b->thread(),
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.duration_ns()) / 1e3,
                   static_cast<unsigned long long>(s.id));
      first = false;
      if (std::string_view(s.name) == "core.query") {
        const QueryMetrics& m = s.metrics;
        std::fprintf(
            f.get(),
            ",\"version\":%u,\"si_tests\":%llu,\"validate_ns\":%lld,"
            "\"index_ns\":%lld,\"probe_ns\":%lld,\"discover_ns\":%lld,"
            "\"prune_ns\":%lld,\"fragment_ns\":%lld,\"verify_ns\":%lld,"
            "\"maintenance_ns\":%lld",
            s.version, static_cast<unsigned long long>(m.si_tests),
            static_cast<long long>(m.t_validate_ns),
            static_cast<long long>(m.t_index_ns),
            static_cast<long long>(m.t_probe_ns),
            static_cast<long long>(m.t_discover_ns),
            static_cast<long long>(m.t_prune_ns),
            static_cast<long long>(m.t_fragment_ns),
            static_cast<long long>(m.t_verify_ns),
            static_cast<long long>(m.t_maintenance_ns));
      }
      std::fputs("}}", f.get());
    }
  }
  std::fputs("\n]}\n", f.get());
  return std::fflush(f.get()) == 0;
}

}  // namespace gcp::perfbench
