// The GC+ benchmark: drives GraphCachePlus from one closed-loop client,
// times every public call, checks every answer against uncached
// Method M and prints one JSON result line (see perfbench/README.md).
//
//   gcp_perfbench --workload hot-read --seed 1 --seconds 10 --trace 0
//                 [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics of one untraced measured span.
// --trace 1 runs an untraced span and then a traced one on a fresh set-up,
// reports the per-layer metrics of the traced span plus the tracing
// overhead, and writes the spans to DIR as Chrome trace-event JSON.

#include <algorithm>
#include <chrono>
#include <functional>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/statistics.hpp"
#include "common/hash.hpp"
#include "core/graphcache_plus.hpp"
#include "host.hpp"
#include "inputs.hpp"
#include "oracle.hpp"
#include "trace.hpp"

namespace gcp::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kOracleThreads = 3;
// Record slots per measured second, allocated and touched before the
// instance is set up, so the benchmark's own bookkeeping stays out of
// peak_rss_mb. About 6x hot-read's rate; a span that fills them ends
// there, and its rate is taken over the time it ran.
constexpr std::size_t kSlotsPerSecond = 60000;
constexpr std::uint32_t kProbeQueries = 8;
// The measured span is cut into this many slices. The pauses between them
// take a set-up sample and a chunk of the update probe, so those short
// timings are spread over the whole run instead of one moment of a host
// whose speed drifts.
constexpr std::size_t kSlices = 10;
// The client moves to the next CPU this often (wall time), so every run
// samples every vCPU of the host alike (see CpuRotation).
constexpr std::int64_t kRotateNs = 100'000'000;
// The update probe moves to the next CPU after this many batches, so each
// of its chunks covers every vCPU.
constexpr std::uint32_t kProbeBatchesPerCpu = 25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

std::int64_t SinceNs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile of `v` (sorted in place), in the input's unit.
double Percentile(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Percentile `p` of `v` (in time order), taken in each of up to kSlices
/// consecutive groups and reported as the median over the groups, so a
/// burst of host interference in part of a run moves one group, not the
/// result. Each group keeps at least ten samples beyond its percentile.
/// Used for updates: few and short, so a burst of steal covers many of
/// them at once. Query latencies have enough samples,
/// and their bimodal hit/miss mix makes a per-group median jump between
/// modes, so they use all samples at once.
double SlicedPercentile(const std::vector<std::int64_t>& v, double p) {
  const auto min_group =
      static_cast<std::size_t>(std::ceil(10.0 / (1.0 - p)));
  const std::size_t groups =
      std::clamp<std::size_t>(v.size() / min_group, 1, kSlices);
  std::vector<double> per_group;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<std::int64_t> part(v.begin() + g * v.size() / groups,
                                   v.begin() + (g + 1) * v.size() / groups);
    per_group.push_back(Percentile(part, p));
  }
  return Median(per_group);
}

// ---------------------------------------------------------------------------
// Engine instance and set-up

struct Instance {
  std::unique_ptr<GraphDataset> dataset;
  std::unique_ptr<GraphCachePlus> engine;
  std::unique_ptr<ChangePlanExecutor> executor;
};

/// Counters that repeat exactly for a serial query sequence.
struct CounterDigest {
  std::uint64_t queries = 0, si_tests = 0, exact = 0, sub = 0, super = 0,
                empty = 0, frag_hits = 0, frag_computed = 0,
                frag_pruned = 0;
  std::uint64_t admissions = 0, evictions = 0, frag_admissions = 0,
                frag_evictions = 0;

  void Add(const QueryMetrics& m) {
    ++queries;
    si_tests += m.si_tests;
    exact += m.exact_hit ? 1 : 0;
    sub += m.sub_hits;
    super += m.super_hits;
    empty += m.empty_shortcut ? 1 : 0;
    frag_hits += m.fragment_hits;
    frag_computed += m.fragment_computed;
    frag_pruned += m.fragment_candidates_pruned;
  }
  void Take(const StatisticsManager& s) {
    admissions = s.total_admissions;
    evictions = s.total_evictions;
    frag_admissions = s.fragment_admissions;
    frag_evictions = s.fragment_evictions;
  }
  std::string Text() const {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "queries=%" PRIu64 " si_tests=%" PRIu64 " exact=%" PRIu64
                  " sub=%" PRIu64 " super=%" PRIu64 " empty=%" PRIu64
                  " admissions=%" PRIu64 " evictions=%" PRIu64
                  " frag_hits=%" PRIu64 " frag_computed=%" PRIu64
                  " frag_pruned=%" PRIu64 " frag_admissions=%" PRIu64
                  " frag_evictions=%" PRIu64,
                  queries, si_tests, exact, sub, super, empty, admissions,
                  evictions, frag_hits, frag_computed, frag_pruned,
                  frag_admissions, frag_evictions);
    return buf;
  }
  std::string Hash() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, Fnv1a(Text()));
    return buf;
  }
};

struct SetupTimes {
  std::int64_t bootstrap_ns = 0, construct_ns = 0, warmup_ns = 0;
  std::int64_t total_ns() const {
    return bootstrap_ns + construct_ns + warmup_ns;
  }
};

/// Records [a, b) as a span on `trace` (when tracing) and returns its
/// index, or -1.
std::int32_t AddSpan(SpanBuffer* trace, Clock::time_point epoch,
                     const char* name, std::uint64_t id, std::int32_t parent,
                     Clock::time_point a, Clock::time_point b) {
  if (trace == nullptr) return -1;
  return trace->Add(name, id, parent, SinceNs(epoch, a), SinceNs(epoch, b));
}

/// Bootstrap + construction + serial warm-up: what a user pays before the
/// first useful query. Input generation is not part of it.
Instance SetUp(const Inputs& in, SpanBuffer* trace,
               Clock::time_point epoch, std::uint64_t setup_id,
               SetupTimes* times, CounterDigest* warm_digest) {
  Instance inst;
  const auto t0 = Clock::now();
  inst.dataset = std::make_unique<GraphDataset>();
  inst.dataset->Bootstrap(in.corpus);
  const auto t1 = Clock::now();
  inst.engine = std::make_unique<GraphCachePlus>(inst.dataset.get(),
                                                 GraphCachePlusOptions{});
  const auto t2 = Clock::now();
  for (const std::uint32_t q : in.warmup) {
    const QueryResult r = inst.engine->Query(in.queries[q], QueryKind::kSubgraph);
    warm_digest->Add(r.metrics);
  }
  const auto t3 = Clock::now();
  warm_digest->Take(inst.engine->CacheStatsSnapshot());
  inst.executor = std::make_unique<ChangePlanExecutor>(
      in.plan, in.corpus, *inst.dataset, Rng(in.plan_seed));
  times->bootstrap_ns = SinceNs(t0, t1);
  times->construct_ns = SinceNs(t1, t2);
  times->warmup_ns = SinceNs(t2, t3);
  const std::int32_t root =
      AddSpan(trace, epoch, "bench.setup", setup_id, -1, t0, t3);
  AddSpan(trace, epoch, "dataset.bootstrap", setup_id, root, t0, t1);
  AddSpan(trace, epoch, "core.construct", setup_id, root, t1, t2);
  AddSpan(trace, epoch, "core.warmup", setup_id, root, t2, t3);
  return inst;
}

// ---------------------------------------------------------------------------
// Measured span

/// Engine counters a span reports as differences.
struct EngineCounters {
  std::uint64_t admissions = 0, evictions = 0, inline_drains = 0,
                reconcile_touched = 0, reconcile_skipped = 0,
                engine_locks = 0;

  static EngineCounters Of(const GraphCachePlus& engine) {
    const StatisticsManager s = engine.CacheStatsSnapshot();
    EngineCounters c;
    c.admissions = s.total_admissions;
    c.evictions = s.total_evictions;
    c.inline_drains = s.backpressure_inline_drains;
    c.reconcile_touched = s.reconcile_entries_touched;
    c.reconcile_skipped = s.reconcile_entries_skipped;
    c.engine_locks = engine.read_phase_engine_lock_acquisitions();
    return c;
  }
  EngineCounters operator-(const EngineCounters& o) const {
    EngineCounters c;
    c.admissions = admissions - o.admissions;
    c.evictions = evictions - o.evictions;
    c.inline_drains = inline_drains - o.inline_drains;
    c.reconcile_touched = reconcile_touched - o.reconcile_touched;
    c.reconcile_skipped = reconcile_skipped - o.reconcile_skipped;
    c.engine_locks = engine_locks - o.engine_locks;
    return c;
  }
  EngineCounters& operator+=(const EngineCounters& o) {
    admissions += o.admissions;
    evictions += o.evictions;
    inline_drains += o.inline_drains;
    reconcile_touched += o.reconcile_touched;
    reconcile_skipped += o.reconcile_skipped;
    engine_locks += o.engine_locks;
    return *this;
  }
};

/// Everything one measured span (or the update probe) produced.
struct SpanResult {
  std::vector<QueryRecord> records;
  std::vector<std::int64_t> latency_ns;  ///< One per Query call.
  std::vector<std::int64_t> update_ns;   ///< One per ApplyDatasetChanges.
  std::uint64_t failed_calls = 0;        ///< Calls that threw.
  std::int64_t wall_ns = 0;   ///< Measured: the span minus its pauses.
  std::int64_t total_ns = 0;  ///< The span with its pauses.
  std::int64_t cpu_ns = 0;    ///< Process CPU over the span minus pauses.
  double steal_frac = 0.0;
  bool capacity_reached = false;  ///< The span ended on a full record array.
  /// Records taken by each slice's end, and each slice's query rate.
  std::vector<std::size_t> slice_ends;
  std::vector<double> slice_qps;
  /// RSS before the instance was set up, and the high-water RSS from then
  /// to the end of the span, pauses' work excluded.
  std::uint64_t rss_baseline = 0, peak_rss = 0;
  EngineCounters counters;  ///< Over the span, summed over its instances.
  StatisticsManager stats_after;  ///< Of the last instance, at the end.
  bool has_digest = false;
  CounterDigest digest;
  std::unique_ptr<SpanBuffer> client_trace;  ///< Traced spans only.
};

/// Applies plan batch k, which moves the dataset from version k to k+1.
void ApplyBatch(Instance& inst, const Inputs& in, std::uint32_t k,
                SpanBuffer* trace, Clock::time_point epoch, std::int32_t parent,
                std::vector<std::int64_t>* update_ns,
                std::uint64_t* failed_calls) {
  const auto a = Clock::now();
  Clock::time_point da, db;
  try {
    inst.engine->ApplyDatasetChanges([&](GraphDataset&) {
      da = Clock::now();
      inst.executor->AdvanceTo(in.plan.batches[k].at_query);
      db = Clock::now();
    });
  } catch (const std::exception&) {
    ++*failed_calls;
  }
  const auto b = Clock::now();
  update_ns->push_back(SinceNs(a, b));
  const std::int32_t s =
      AddSpan(trace, epoch, "core.apply_changes", 1000000000ULL + k, parent, a, b);
  AddSpan(trace, epoch, "dataset.apply", 1000000000ULL + k, s, da, db);
}

/// Allocates and touches the record slots of a span of `seconds`.
void ReserveRecords(const WorkloadSpec& spec, double seconds, SpanResult* out) {
  const std::size_t capacity = std::max<std::size_t>(
      {spec.min_queries, spec.episode_queries,
       static_cast<std::size_t>(seconds * static_cast<double>(kSlotsPerSecond))});
  out->records.assign(capacity, QueryRecord{});
  out->latency_ns.assign(capacity, 0);
}

/// Runs the closed loop, one client on the calling thread, into the slots
/// ReserveRecords made. The span is cut into slices: kSlices slices of
/// `seconds`/kSlices of measured time (the last one runs on until
/// spec.min_queries), or, for workloads with in-run changes, episodes of
/// spec.episode_queries queries, each on a fresh instance, until
/// `seconds` of measured time have passed. A fixed amount of work per
/// episode keeps the dataset state the queries meet independent of the
/// engine's speed: in one long span, a faster engine would apply more
/// batches and meet a more churned dataset. Every episode applies the
/// same plan batches from version 0, so a version names one dataset state
/// in all of them and the oracle checks them in one replay. Between
/// slices `pause_work` runs and returns a freshly set-up instance, which
/// the next episode uses and time slices discard. Pauses count neither in
/// the measured wall time nor in the measured CPU time, and what their
/// work leaves resident is not in out->peak_rss. The span also ends when
/// the record slots are full. The client moves to the next CPU of
/// `rotation` every kRotateNs.
void MeasureSpan(Instance* inst, const Inputs& in, const WorkloadSpec& spec,
                 double seconds, bool traced, SpanBuffer* main_trace,
                 Clock::time_point epoch, CpuRotation* rotation,
                 const std::function<Instance()>& pause_work,
                 SpanResult* result) {
  SpanResult& out = *result;
  const std::size_t capacity = out.records.size();
  const bool episodes = spec.episode_queries > 0;
  if (traced) out.client_trace = std::make_unique<SpanBuffer>(1);
  SpanBuffer* trace = out.client_trace.get();
  const auto span_ns = static_cast<std::int64_t>(seconds * 1e9);
  CounterDigest digest;
  std::uint64_t failed_calls = 0;
  std::uint32_t version = 0;  // Batches applied to the current instance.
  EngineCounters before = EngineCounters::Of(*inst->engine);
  rotation->Next();

  const CpuTicks ticks0 = ReadCpuTicks();
  const std::int64_t cpu0 = ProcessCpuNs();
  const auto t0 = Clock::now();
  const std::int32_t root = AddSpan(trace, epoch, "bench.client", 0, -1, t0, t0);
  std::int64_t pause_ns = 0, pause_cpu_ns = 0;
  std::uint64_t peak_rss = 0;
  auto slice_start = t0;
  auto rotate_at = t0 + std::chrono::nanoseconds(kRotateNs);
  std::size_t t = 0, slice_begin = 0;
  for (;;) {
    const auto now = Clock::now();
    if (now >= rotate_at) {
      rotation->Next();
      rotate_at = now + std::chrono::nanoseconds(kRotateNs);
    }
    const std::int64_t elapsed = SinceNs(t0, now) - pause_ns;
    const std::size_t slice = out.slice_ends.size();
    const bool slice_over =
        episodes ? t - slice_begin == spec.episode_queries
                 : elapsed >= span_ns * static_cast<std::int64_t>(slice + 1) /
                                  static_cast<std::int64_t>(kSlices) &&
                       (slice + 1 < kSlices || t >= spec.min_queries);
    const bool full =
        episodes ? slice_over && t + spec.episode_queries > capacity
                 : t == capacity;
    if (slice_over || full) {
      out.slice_ends.push_back(t);
      out.slice_qps.push_back(
          Ratio(static_cast<double>(t - slice_begin),
                static_cast<double>(SinceNs(slice_start, now)) / 1e9));
      slice_begin = t;
      out.capacity_reached = full;
      if (full || (episodes ? elapsed >= span_ns : slice + 1 == kSlices)) break;
      // Pause: the next slice starts after pause_work's set-up.
      const std::int64_t pcpu0 = ProcessCpuNs();
      peak_rss = std::max(peak_rss, PeakRssBytes());
      {
        Instance fresh = pause_work();
        if (episodes) {
          out.counters += EngineCounters::Of(*inst->engine) - before;
          before = EngineCounters::Of(*fresh.engine);
          std::swap(*inst, fresh);  // The used instance is freed here.
          version = 0;
        }
      }
      ResetPeakRss();
      slice_start = Clock::now();
      AddSpan(trace, epoch, "bench.pause", 0, root, now, slice_start);
      pause_ns += SinceNs(now, slice_start);
      pause_cpu_ns += ProcessCpuNs() - pcpu0;
      continue;
    }
    if (spec.batch_every > 0 && t > slice_begin &&
        (t - slice_begin) % spec.batch_every == 0 &&
        version < in.plan.batches.size()) {
      // A batch is due: plan batch k comes before the episode's query
      // (k+1)·batch_every.
      ApplyBatch(*inst, in, version++, trace, epoch, root, &out.update_ns,
                 &failed_calls);
    }
    const std::uint32_t q = in.stream[t % in.stream.size()];
    QueryRecord& rec = out.records[t];
    rec.query = q;
    rec.v_lo = rec.v_hi = version;
    const auto a = Clock::now();
    QueryResult r;
    try {
      r = inst->engine->Query(in.queries[q], QueryKind::kSubgraph);
    } catch (const std::exception&) {
      ++failed_calls;
    }
    const auto b = Clock::now();
    rec.answer_hash = AnswerHash(r.answer);
    out.latency_ns[t] = SinceNs(a, b);
    if (trace != nullptr) {
      const std::int32_t s = AddSpan(trace, epoch, "core.query", t, root, a, b);
      trace->at(s).version = version;
      trace->at(s).metrics = r.metrics;
    }
    if (t < spec.digest_queries) {
      digest.Add(r.metrics);
      if (t + 1 == spec.digest_queries) {
        digest.Take(inst->engine->CacheStatsSnapshot());
        out.digest = digest;
        out.has_digest = true;
      }
    }
    ++t;
  }
  const auto t1 = Clock::now();
  if (trace != nullptr) trace->at(root).end_ns = SinceNs(epoch, t1);
  out.cpu_ns = ProcessCpuNs() - cpu0 - pause_cpu_ns;
  out.steal_frac = StealFraction(ticks0, ReadCpuTicks());
  out.peak_rss = std::max(peak_rss, PeakRssBytes());
  out.total_ns = SinceNs(t0, t1);
  out.wall_ns = out.total_ns - pause_ns;
  AddSpan(main_trace, epoch, "bench.measure", 0, -1, t0, t1);
  out.counters += EngineCounters::Of(*inst->engine) - before;
  out.stats_after = inst->engine->CacheStatsSnapshot();
  out.failed_calls = failed_calls;
  out.records.resize(t);
  out.latency_ns.resize(t);
}

/// Serial update probe for workloads without in-run changes, on an
/// instance of its own: each plan batch through ApplyDatasetChanges
/// (timed), then spec.probe_queries queries (checked, not timed) so the
/// cache reconciles every batch on its own. It runs in chunks in the
/// measured span's pauses, so its timings sample the host across the run.
/// The queries cycle over a few stream entries, which keeps the oracle's
/// catch-up between versions small.
struct Probe {
  Instance inst;
  SpanResult out;
  std::uint32_t next_batch = 0;
  std::uint64_t queries = 0;

  void Run(const Inputs& in, const WorkloadSpec& spec, std::uint32_t batches,
           SpanBuffer* trace, Clock::time_point epoch, CpuRotation* rotation) {
    const std::uint32_t end = std::min<std::uint32_t>(
        next_batch + batches, static_cast<std::uint32_t>(spec.probe_batches));
    for (; next_batch < end; ++next_batch) {
      const std::uint32_t k = next_batch;
      if (k % kProbeBatchesPerCpu == 0) rotation->Next();
      ApplyBatch(inst, in, k, trace, epoch, -1, &out.update_ns,
                 &out.failed_calls);
      for (std::size_t j = 0; j < spec.probe_queries; ++j, ++queries) {
        QueryRecord rec;
        rec.query = in.stream[(queries % kProbeQueries) % in.stream.size()];
        rec.v_lo = rec.v_hi = k + 1;
        const auto a = Clock::now();
        QueryResult r;
        try {
          r = inst.engine->Query(in.queries[rec.query], QueryKind::kSubgraph);
        } catch (const std::exception&) {
          ++out.failed_calls;
        }
        const std::int32_t s = AddSpan(trace, epoch, "core.query",
                                       2000000000ULL + queries, -1, a,
                                       Clock::now());
        if (s >= 0) {
          trace->at(s).version = rec.v_lo;
          trace->at(s).metrics = r.metrics;
        }
        rec.answer_hash = AnswerHash(r.answer);
        out.records.push_back(rec);
      }
    }
    out.counters = EngineCounters::Of(*inst.engine) - before;
  }

  EngineCounters before;  ///< At the end of the probe's set-up.
};

struct SpanRun {
  SpanResult span;
  std::unique_ptr<Probe> probe;  ///< Workloads without in-run changes.
};

// ---------------------------------------------------------------------------
// Reporting

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Put(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  std::string Json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.15g,\"unit\":\"%s\"}",
                    i == 0 ? "" : ",", items[i].first.c_str(),
                    items[i].second.first, items[i].second.second.c_str());
      s += buf;
    }
    return s + "}";
  }
};

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

double Ms(double ns) { return ns / 1e6; }

/// The end-to-end metrics of one untraced span.
void EndToEndMetrics(const SpanResult& span, const SpanResult& probe,
                     const std::vector<SetupTimes>& setups, Metrics* m) {
  const double queries = static_cast<double>(span.records.size());
  const double wall_s = static_cast<double>(span.wall_ns) / 1e9;
  // Workloads without in-run changes measure updates in the probe.
  const std::vector<std::int64_t>& updates =
      span.update_ns.empty() ? probe.update_ns : span.update_ns;
  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(static_cast<double>(t.total_ns()) / 1e9);
  }
  m->Put("qps", Ratio(queries, wall_s), "1/s");
  std::vector<std::int64_t> latency = span.latency_ns;
  m->Put("query_p50_ms", Ms(Percentile(latency, 0.50)), "ms");
  m->Put("query_p99_ms", Ms(Percentile(latency, 0.99)), "ms");
  m->Put("cpu_ms_per_query", Ms(Ratio(static_cast<double>(span.cpu_ns), queries)),
         "ms");
  m->Put("update_p50_ms", Ms(SlicedPercentile(updates, 0.50)), "ms");
  m->Put("update_p90_ms", Ms(SlicedPercentile(updates, 0.90)), "ms");
  m->Put("setup_s", Median(setup_s), "s");
  const std::uint64_t own_rss =
      span.peak_rss - std::min(span.peak_rss, span.rss_baseline);
  m->Put("peak_rss_mb", static_cast<double>(own_rss) / (1024.0 * 1024.0),
         "MiB");
}

/// Per-layer metrics of the traced span (README.md names each one's
/// target end-to-end metric). `extra` gets the ones that are 0 in most
/// runs of every workload, printed but kept out of BENCHMARK.json.
void PerLayerMetrics(const SpanResult& traced, const SpanResult& probe,
                     const SpanBuffer& main_trace,
                     const std::vector<SetupTimes>& setups,
                     const OracleReport& oracle, double generate_s,
                     double overhead_frac,
                     double mem_latency_ns, const AccountingReport& acct,
                     Metrics* m, Metrics* extra) {
  double n = 0, validate = 0, probe_ns = 0, discover = 0, prune = 0,
         fragment = 0, verify = 0, maint = 0, unattributed = 0, span_ns = 0;
  double si_tests = 0, cand_init = 0, cand_final = 0, zero_test = 0,
         exact = 0, sub = 0, super = 0, empty = 0, frag_pruned = 0,
         frag_computed = 0;
  std::vector<std::int64_t> hit_ns, miss_ns;
  double apply_self = 0, apply_child = 0, applies = 0, dataset_applies = 0;
  auto scan_updates = [&](const SpanBuffer& b) {
    const std::vector<std::int64_t> self = SelfTimes(b);
    const auto& spans = b.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string_view name(spans[i].name);
      if (name == "core.apply_changes") {
        apply_self += static_cast<double>(self[i]);
        ++applies;
      } else if (name == "dataset.apply") {
        apply_child += static_cast<double>(spans[i].duration_ns());
        ++dataset_applies;
      }
    }
  };
  // Reconciliation runs inside the first Query after a batch, so
  // validate_ms averages over the calls whose validate timer ran: in the
  // traced span (churn) or in the update probe (the other workloads).
  double validating = 0;
  auto scan_validate = [&](const SpanBuffer& b) {
    for (const Span& s : b.spans()) {
      if (std::string_view(s.name) == "core.query" &&
          s.metrics.t_validate_ns > 0) {
        validate += static_cast<double>(s.metrics.t_validate_ns);
        ++validating;
      }
    }
  };
  scan_validate(main_trace);
  const bool in_run_updates = !traced.update_ns.empty();
  {
    const SpanBuffer& client = *traced.client_trace;
    scan_validate(client);
    for (const Span& s : client.spans()) {
      if (std::string_view(s.name) != "core.query") continue;
      const QueryMetrics& q = s.metrics;
      ++n;
      span_ns += static_cast<double>(s.duration_ns());
      probe_ns += static_cast<double>(q.t_probe_ns);
      discover += static_cast<double>(q.t_discover_ns);
      prune += static_cast<double>(q.t_prune_ns);
      fragment += static_cast<double>(q.t_fragment_ns);
      verify += static_cast<double>(q.t_verify_ns);
      maint += static_cast<double>(q.t_maintenance_ns);
      unattributed += static_cast<double>(s.duration_ns() - StageSumNs(q));
      si_tests += static_cast<double>(q.si_tests);
      cand_init += static_cast<double>(q.candidates_initial);
      cand_final += static_cast<double>(q.candidates_final);
      zero_test += q.si_tests == 0 ? 1 : 0;
      exact += q.exact_hit ? 1 : 0;
      sub += q.sub_hits;
      super += q.super_hits;
      empty += q.empty_shortcut ? 1 : 0;
      frag_pruned += static_cast<double>(q.fragment_candidates_pruned);
      frag_computed += q.fragment_computed;
      (q.si_tests == 0 ? hit_ns : miss_ns).push_back(s.duration_ns());
    }
    if (in_run_updates) scan_updates(client);
  }
  if (!in_run_updates) scan_updates(main_trace);

  const EngineCounters& c = traced.counters;
  const StatisticsManager& a = traced.stats_after;
  // Reconciliation happens where the batches are: in the traced span
  // (churn) or in the update probe.
  const EngineCounters& r = in_run_updates ? c : probe.counters;
  const double touched = static_cast<double>(r.reconcile_touched);
  const double skipped = static_cast<double>(r.reconcile_skipped);
  const double m_query_ms =
      Ms(Ratio(static_cast<double>(oracle.full_ns),
               static_cast<double>(oracle.full_evals)));
  std::vector<double> construct, warmup, bootstrap;
  for (const SetupTimes& t : setups) {
    construct.push_back(Ms(static_cast<double>(t.construct_ns)));
    warmup.push_back(Ms(static_cast<double>(t.warmup_ns)));
    bootstrap.push_back(Ms(static_cast<double>(t.bootstrap_ns)));
  }
  const double wall = static_cast<double>(traced.wall_ns);

  m->Put("core.query.validate_ms", Ms(Ratio(validate, validating)), "ms");
  m->Put("core.query.probe_ms", Ms(Ratio(probe_ns, n)), "ms");
  m->Put("core.query.prune_ms", Ms(Ratio(prune, n)), "ms");
  m->Put("core.query.verify_ms", Ms(Ratio(verify, n)), "ms");
  m->Put("core.query.maintenance_ms", Ms(Ratio(maint, n)), "ms");
  m->Put("core.query.unattributed_ms", Ms(Ratio(unattributed, n)), "ms");
  m->Put("core.query.hit_p50_ms", Ms(Percentile(hit_ns, 0.5)), "ms");
  m->Put("core.query.miss_p50_ms", Ms(Percentile(miss_ns, 0.5)), "ms");
  m->Put("core.update.self_ms", Ms(Ratio(apply_self, applies)), "ms");
  m->Put("core.si_tests_per_query", Ratio(si_tests, n), "count");
  m->Put("core.candidates_pruned_frac", 1.0 - Ratio(cand_final, cand_init),
         "ratio");
  m->Put("core.zero_test_frac", Ratio(zero_test, n), "ratio");
  m->Put("core.engine_lock_per_query",
         Ratio(static_cast<double>(c.engine_locks), n),
         "count");
  m->Put("core.speedup_vs_m", Ratio(m_query_ms, Ms(Ratio(span_ns, n))), "ratio");
  m->Put("core.construct_ms", Median(construct), "ms");
  m->Put("core.warmup_ms", Median(warmup), "ms");
  m->Put("cache.discover_ms", Ms(Ratio(discover, n)), "ms");
  m->Put("cache.fragment_ms", Ms(Ratio(fragment, n)), "ms");
  m->Put("cache.fragment_pruned_per_query", Ratio(frag_pruned, n), "count");
  m->Put("cache.fragment_computed_per_query", Ratio(frag_computed, n), "count");
  m->Put("cache.exact_hit_frac", Ratio(exact, n), "ratio");
  m->Put("cache.sub_hits_per_query", Ratio(sub, n), "count");
  m->Put("cache.super_hits_per_query", Ratio(super, n), "count");
  extra->Put("cache.empty_shortcut_frac", Ratio(empty, n), "ratio");
  m->Put("cache.admissions_per_query",
         Ratio(static_cast<double>(c.admissions), n),
         "count");
  m->Put("cache.evictions_per_query",
         Ratio(static_cast<double>(c.evictions), n),
         "count");
  m->Put("cache.reconcile_touched_frac", Ratio(touched, touched + skipped),
         "ratio");
  m->Put("cache.resident_kb",
         static_cast<double>(a.approx_graph_bytes + a.approx_bitset_bytes +
                             a.approx_posting_bytes + a.approx_fragment_bytes) /
             1024.0,
         "KiB");
  extra->Put("cache.inline_drains_per_query",
         Ratio(static_cast<double>(c.inline_drains), n),
         "count");
  m->Put("dataset.apply_ms", Ms(Ratio(apply_child, dataset_applies)), "ms");
  m->Put("dataset.bootstrap_ms", Median(bootstrap), "ms");
  m->Put("match.m_query_ms", m_query_ms, "ms");
  m->Put("match.ns_per_test",
         Ratio(static_cast<double>(oracle.full_ns),
               static_cast<double>(oracle.full_tests)),
         "ns");
  m->Put("match.engine_ns_per_test", Ratio(verify, si_tests), "ns");
  m->Put("workload.generate_s", generate_s, "s");
  m->Put("host.steal_frac", traced.steal_frac, "ratio");
  m->Put("host.cpu_util",
         Ratio(static_cast<double>(traced.cpu_ns),
               wall),
         "ratio");
  m->Put("host.mem_latency_ns", mem_latency_ns, "ns");
  m->Put("trace.overhead_frac", overhead_frac, "ratio");
  m->Put("trace.harness_frac", acct.harness_frac, "ratio");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = val == "1";
    } else if (key == "--out-dir") {
      args->out_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Host memory latency at the start and the end of the run; measured
  // where its buffer cannot raise the peak RSS the span reports.
  const double mem_latency_start = MemoryLatencyNs();
  const auto epoch = Clock::now();
  SpanBuffer main_trace(0);
  SpanBuffer* mt = args.trace ? &main_trace : nullptr;

  const Inputs in = GenerateInputs(spec, args.seed);
  const auto generated = Clock::now();
  const double generate_s = static_cast<double>(SinceNs(epoch, generated)) / 1e9;
  AddSpan(mt, epoch, "workload.generate", 0, -1, epoch, generated);
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              spec.name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("inputs fingerprint=%s corpus=%zu distinct_queries=%zu "
              "stream=%zu plan_batches=%zu generate_s=%.3f\n",
              Hex(in.fingerprint).c_str(), in.corpus.size(), in.queries.size(),
              in.stream.size(), in.plan.batches.size(), generate_s);

  std::vector<std::string> problems;
  // Every set-up is timed for setup_s, and its warm-up counters must match
  // the others'.
  std::vector<SetupTimes> setups;
  std::vector<std::string> warm_digests;
  auto set_up = [&] {
    SetupTimes t;
    CounterDigest d;
    Instance inst = SetUp(in, mt, epoch, setups.size(), &t, &d);
    setups.push_back(t);
    warm_digests.push_back(d.Text());
    return inst;
  };
  // One measured span on a fresh set-up. Its pauses take one more set-up
  // sample and, where the workload has one, a chunk of the update probe.
  // The probe's instance and the record slots exist before the RSS
  // baseline, so peak_rss_mb counts the measured instance, not them.
  // Each set-up starts on the next CPU; the rotation ends with the span,
  // before the oracle starts its threads.
  auto run_span = [&](bool traced, SpanRun* run) {
    CpuRotation rotation;
    if (spec.probe_batches > 0) {
      run->probe = std::make_unique<Probe>();
      rotation.Next();
      run->probe->inst = set_up();
      run->probe->before = EngineCounters::Of(*run->probe->inst.engine);
    }
    ReserveRecords(spec, args.seconds, &run->span);
    if (!ResetPeakRss()) problems.push_back("cannot reset the peak RSS");
    run->span.rss_baseline = RssBytes();
    rotation.Next();
    Instance inst = set_up();
    SpanBuffer* trace = traced ? mt : nullptr;
    const auto chunk = static_cast<std::uint32_t>(spec.probe_batches / kSlices);
    MeasureSpan(&inst, in, spec, args.seconds, traced, trace, epoch,
                &rotation,
                [&] {
                  rotation.Next();
                  Instance fresh = set_up();
                  if (run->probe) {
                    run->probe->Run(in, spec, chunk, trace, epoch, &rotation);
                  }
                  return fresh;
                },
                &run->span);
    if (run->probe) {
      run->probe->Run(in, spec, static_cast<std::uint32_t>(spec.probe_batches),
                      trace, epoch, &rotation);
    }
  };

  // The untraced span gives the end-to-end numbers; a traced run adds a
  // traced span and reports from that one.
  SpanRun untraced_run, traced_run;
  run_span(false, &untraced_run);
  if (args.trace) run_span(true, &traced_run);
  const SpanResult& span = untraced_run.span;
  const SpanResult& traced = traced_run.span;
  const SpanRun& reported = args.trace ? traced_run : untraced_run;
  const SpanResult no_probe;
  const SpanResult& probe = reported.probe ? reported.probe->out : no_probe;

  for (const std::string& d : warm_digests) {
    if (d != warm_digests.front()) {
      problems.push_back("warm-up counters differ between set-ups: " +
                         warm_digests.front() + " vs " + d);
      break;
    }
  }

  // Oracle: every answer against uncached Method M, outside every timed
  // span. A probe has its own instance, so its own replay.
  const auto oracle_start = Clock::now();
  OracleReport oracle;
  std::uint64_t updates = 0, failed_calls = 0;
  {
    Oracle checker(in, kOracleThreads);
    const std::string memo_path =
        args.out_dir + "/oracle-" + Hex(in.query_set_key) + ".bin";
    checker.Load(memo_path, &oracle);
    const std::size_t known = checker.KnownBaseAnswers();
    for (const SpanRun* run : {&untraced_run, &traced_run}) {
      std::vector<const SpanResult*> parts = {&run->span};
      if (run->probe) parts.push_back(&run->probe->out);
      for (const SpanResult* part : parts) {
        if (!part->records.empty()) checker.Check(part->records, &oracle);
        updates += part->update_ns.size();
        failed_calls += part->failed_calls;
      }
    }
    if (checker.KnownBaseAnswers() > known && !checker.Save(memo_path)) {
      std::printf("note: could not save %s\n", memo_path.c_str());
    }
  }
  const auto oracle_end = Clock::now();
  AddSpan(mt, epoch, "match.oracle", 0, -1, oracle_start, oracle_end);

  const std::uint64_t attempted = oracle.checked + updates;
  const std::uint64_t failed = oracle.wrong + failed_calls;
  for (const std::string& e : oracle.examples) {
    problems.push_back("wrong answer: " + e);
  }
  if (failed_calls > 0) {
    problems.push_back(std::to_string(failed_calls) + " calls threw");
  }

  const double mem_latency_end = MemoryLatencyNs();
  Metrics metrics, extra;
  if (!args.trace) {
    EndToEndMetrics(span, probe, setups, &metrics);
  } else {
    const AccountingReport acct = CheckAccounting(*traced.client_trace);
    if (!acct.ok()) {
      problems.push_back("stage accounting: " +
                         std::to_string(acct.stage_overruns) +
                         " queries whose stage timers exceed their Query span");
    }
    std::printf("accounting queries=%" PRIu64 " stage_overruns=%" PRIu64
                " harness_frac=%.6f\n",
                acct.queries, acct.stage_overruns, acct.harness_frac);
    const double untraced_per_q = Ratio(static_cast<double>(span.wall_ns),
                                        static_cast<double>(span.records.size()));
    const double traced_per_q = Ratio(static_cast<double>(traced.wall_ns),
                                      static_cast<double>(traced.records.size()));
    PerLayerMetrics(traced, probe, main_trace, setups, oracle, generate_s,
                    Ratio(traced_per_q, untraced_per_q) - 1.0,
                    (mem_latency_start + mem_latency_end) / 2.0, acct,
                    &metrics, &extra);
    std::printf("also %s\n", extra.Json().c_str());
    const std::vector<const SpanBuffer*> all = {&main_trace,
                                                traced.client_trace.get()};
    const std::string path = args.out_dir + "/trace-" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (WriteChromeTrace(path, all)) {
      std::printf("trace written to %s\n", path.c_str());
    } else {
      problems.push_back("could not write " + path);
    }
  }

  const double cpu_util =
      Ratio(static_cast<double>(span.cpu_ns), static_cast<double>(span.wall_ns));
  std::printf("host steal_frac=%.4f cpu_util=%.4f (untraced span) "
              "mem_latency_ns=%.1f/%.1f (start/end)\n",
              span.steal_frac, cpu_util, mem_latency_start, mem_latency_end);
  if (span.capacity_reached) {
    std::printf("note: the span filled its %zu record slots and ended early\n",
                span.records.size());
  }
  std::printf("rss baseline_mb=%.1f peak_mb=%.1f (untraced span)\n",
              static_cast<double>(span.rss_baseline) / (1024.0 * 1024.0),
              static_cast<double>(span.peak_rss) / (1024.0 * 1024.0));
  std::printf("samples queries=%zu updates=%zu setups=%zu wall_s=%.3f "
              "pauses_s=%.3f oracle_s=%.3f\n",
              span.records.size(),
              span.update_ns.empty() ? probe.update_ns.size()
                                     : span.update_ns.size(),
              setups.size(), static_cast<double>(span.wall_ns) / 1e9,
              static_cast<double>(span.total_ns - span.wall_ns) / 1e9,
              static_cast<double>(SinceNs(oracle_start, oracle_end)) / 1e9);
  std::printf("oracle checked=%" PRIu64 " wrong=%" PRIu64
              " method_m_full=%" PRIu64 " incremental=%" PRIu64
              " loaded=%" PRIu64 "\n",
              oracle.checked, oracle.wrong, oracle.full_evals,
              oracle.incremental_evals, oracle.loaded);
  {
    std::string qps_line, p99_line;
    std::size_t from = 0;
    for (std::size_t i = 0; i < span.slice_qps.size(); ++i) {
      std::vector<std::int64_t> part(
          span.latency_ns.begin() + static_cast<std::ptrdiff_t>(from),
          span.latency_ns.begin() +
              static_cast<std::ptrdiff_t>(span.slice_ends[i]));
      from = span.slice_ends[i];
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %.0f", span.slice_qps[i]);
      qps_line += buf;
      std::snprintf(buf, sizeof(buf), " %.3f", Ms(Percentile(part, 0.99)));
      p99_line += buf;
    }
    std::printf("slices qps=%s p99_ms=%s\n", qps_line.c_str(), p99_line.c_str());
  }
  if (span.has_digest) {
    std::printf("counter digest=%s %s\n", span.digest.Hash().c_str(),
                span.digest.Text().c_str());
  }
  for (const std::string& p : problems) std::printf("PROBLEM %s\n", p.c_str());

  // The run's record: what run.py stores beside the metrics.
  char rec[1024];
  std::snprintf(
      rec, sizeof(rec),
      "{\"fingerprint\":\"%s\",\"counter_digest\":\"%s\","
      "\"warmup_digest\":\"%s\",\"steal_frac\":%.6f,\"cpu_util\":%.6f,"
      "\"mem_latency_ns\":[%.2f,%.2f],\"failed_frac\":%.6g,"
      "\"query_samples\":%zu,\"update_samples\":%zu,"
      "\"capacity_reached\":%s,\"problems\":%zu}",
      Hex(in.fingerprint).c_str(),
      span.has_digest ? span.digest.Hash().c_str() : "",
      Hex(Fnv1a(warm_digests.front())).c_str(), span.steal_frac, cpu_util,
      mem_latency_start, mem_latency_end,
      Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      span.records.size(),
      span.update_ns.empty() ? probe.update_ns.size() : span.update_ns.size(),
      span.capacity_reached ? "true" : "false", problems.size());
  const bool correct = oracle.wrong == 0 && failed_calls == 0 && problems.empty();
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":%s,\"record\":%s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.Json().c_str(), rec);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gcp::perfbench

int main(int argc, char** argv) {
  gcp::perfbench::Args args;
  if (!gcp::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gcp_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  try {
    return gcp::perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
