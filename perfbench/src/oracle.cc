#include "oracle.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/method_m.hpp"

namespace gcp::perfbench {

namespace {

constexpr std::uint64_t kSelfCheckEvery = 64;
constexpr std::size_t kLoadSpotChecks = 32;
constexpr char kMemoMagic[8] = {'G', 'C', 'P', 'O', 'R', 'A', '1', '\n'};

using File = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

template <typename T>
bool Put(std::FILE* f, const T& v) {
  return std::fwrite(&v, sizeof(T), 1, f) == 1;
}
template <typename T>
bool Get(std::FILE* f, T* v) {
  return std::fread(v, sizeof(T), 1, f) == 1;
}
constexpr std::size_t kMaxExamples = 5;

std::uint64_t BitsHash(const DynamicBitset& bits) {
  std::vector<GraphId> ids;
  bits.ForEachSetBit(
      [&ids](std::size_t id) { ids.push_back(static_cast<GraphId>(id)); });
  return AnswerHash(ids);
}

}  // namespace

std::uint64_t AnswerHash(std::span<const GraphId> ids) {
  std::uint64_t h = Fnv1a(ids.data(), ids.size() * sizeof(GraphId));
  HashCombine(h, ids.size());
  return h;
}

/// The oracle's own dataset, advanced one plan batch per version.
struct Oracle::Replay {
  GraphDataset dataset;
  ChangePlanExecutor executor;
  MethodM method_m;
  std::uint32_t version = 0;
  /// touched[k]: graph ids batch k (version k → k+1) added, deleted or
  /// edited.
  std::vector<std::vector<GraphId>> touched;

  explicit Replay(const Inputs& in)
      : executor(in.plan, in.corpus, dataset, Rng(in.plan_seed)),
        method_m(MatcherKind::kVf2, dataset) {
    dataset.Bootstrap(in.corpus);
  }

  bool Advance(const ChangePlan& plan) {
    if (version >= plan.batches.size()) return false;
    const LogSeq before = dataset.log().LatestSeq();
    executor.AdvanceTo(plan.batches[version].at_query);
    std::vector<GraphId> ids;
    for (const ChangeRecord& r : dataset.log().ExtractSince(before)) {
      ids.push_back(r.graph_id);
    }
    touched.push_back(std::move(ids));
    ++version;
    return true;
  }

  DynamicBitset Verify(const Graph& q, const DynamicBitset& candidates,
                       std::uint64_t* tests) const {
    return method_m.VerifyCandidates(q, QueryKind::kSubgraph, candidates,
                                     tests);
  }
};

Oracle::Oracle(const Inputs& in, std::size_t threads)
    : in_(in), threads_(std::max<std::size_t>(1, threads)),
      memo_(in.queries.size()), base_(in.queries.size()) {}

Oracle::~Oracle() = default;

void Oracle::FullEval(std::uint32_t q, OracleReport* report) {
  Stopwatch watch;
  std::uint64_t tests = 0;
  Memo& m = memo_[q];
  m.bits = replay_->Verify(in_.queries[q], replay_->dataset.LiveMask(), &tests);
  m.version = replay_->version;
  m.valid = true;
  if (m.version == 0) base_[q] = m;
  if (report != nullptr) {
    report->full_ns += watch.ElapsedNanos();
    report->full_tests += tests;
    ++report->full_evals;
  }
}

std::uint64_t Oracle::AnswerHashAt(std::uint32_t q, OracleReport* report) {
  Memo& m = memo_[q];
  if (!m.valid) FullEval(q, report);
  const std::uint32_t v = replay_->version;
  if (m.version < v) {
    const std::size_t horizon = replay_->dataset.IdHorizon();
    DynamicBitset seen(horizon);
    DynamicBitset candidates(horizon);
    std::vector<GraphId> ids;
    for (std::uint32_t k = m.version; k < v; ++k) {
      for (const GraphId id : replay_->touched[k]) {
        if (seen.Test(id)) continue;
        seen.Set(id);
        ids.push_back(id);
        if (replay_->dataset.IsLive(id)) candidates.Set(id);
      }
    }
    if (ids.size() * 2 > replay_->dataset.NumLive()) {
      FullEval(q, report);  // Cheaper than catching up.
      return BitsHash(m.bits);
    }
    const DynamicBitset pass =
        replay_->Verify(in_.queries[q], candidates, nullptr);
    m.bits.Resize(horizon);
    for (const GraphId id : ids) m.bits.Set(id, pass.Test(id));
    m.version = v;
    ++report->incremental_evals;
    if (report->incremental_evals % kSelfCheckEvery == 0) {
      const std::uint64_t updated = BitsHash(m.bits);
      FullEval(q, nullptr);
      if (BitsHash(m.bits) != updated) {
        throw std::logic_error("oracle: memoised Method M answer diverged");
      }
    }
  }
  return BitsHash(m.bits);
}

void Oracle::Check(std::span<const QueryRecord> records,
                   OracleReport* report) {
  replay_ = std::make_unique<Replay>(in_);
  memo_ = base_;  // Later versions belong to the previous replay.

  std::vector<std::size_t> order(records.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&records](std::size_t a, std::size_t b) {
                     return records[a].v_lo < records[b].v_lo;
                   });

  ThreadPool pool(threads_);
  std::vector<std::size_t> pending;  // Matched no version so far.
  std::size_t next = 0;
  auto wrong = [&](const QueryRecord& r) {
    ++report->wrong;
    if (report->examples.size() < kMaxExamples) {
      report->examples.push_back(
          "query " + std::to_string(r.query) + " versions [" +
          std::to_string(r.v_lo) + "," + std::to_string(r.v_hi) + "]");
    }
  };
  while (next < order.size() || !pending.empty()) {
    const std::uint32_t v = replay_->version;
    std::size_t end = next;
    while (end < order.size() && records[order[end]].v_lo == v) ++end;

    // Whole-dataset evaluations of queries first seen here run in
    // parallel; everything after is cheap and serial.
    std::vector<std::uint32_t> fresh;
    for (std::size_t i = next; i < end; ++i) {
      const std::uint32_t q = records[order[i]].query;
      if (!memo_[q].valid) {
        memo_[q].valid = true;  // Claimed; FullEval below fills it.
        fresh.push_back(q);
      }
    }
    std::vector<OracleReport> parts(fresh.size());
    pool.ParallelFor(fresh.size(),
                     [&](std::size_t i) { FullEval(fresh[i], &parts[i]); });
    for (const OracleReport& p : parts) {
      report->full_evals += p.full_evals;
      report->full_tests += p.full_tests;
      report->full_ns += p.full_ns;
    }

    std::vector<std::size_t> still;
    for (const std::size_t i : pending) {
      if (AnswerHashAt(records[i].query, report) == records[i].answer_hash) {
        continue;
      }
      if (records[i].v_hi > v) {
        still.push_back(i);
      } else {
        wrong(records[i]);
      }
    }
    for (std::size_t i = next; i < end; ++i) {
      const QueryRecord& r = records[order[i]];
      ++report->checked;
      if (AnswerHashAt(r.query, report) == r.answer_hash) continue;
      if (r.v_hi > v) {
        still.push_back(order[i]);
      } else {
        wrong(r);
      }
    }
    pending = std::move(still);
    next = end;
    if (next == order.size() && pending.empty()) break;
    if (!replay_->Advance(in_.plan)) {
      for (const std::size_t i : pending) wrong(records[i]);
      for (; next < order.size(); ++next) {
        ++report->checked;
        wrong(records[order[next]]);
      }
      break;
    }
  }
}

bool Oracle::Load(const std::string& path, OracleReport* report) {
  File f(std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) return false;
  char magic[sizeof(kMemoMagic)];
  std::uint64_t key = 0;
  std::uint32_t n = 0;
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      !std::equal(magic, magic + sizeof(magic), kMemoMagic) ||
      !Get(f.get(), &key) || key != in_.query_set_key || !Get(f.get(), &n) ||
      n != in_.queries.size()) {
    return false;
  }
  std::vector<Memo> loaded(n);
  for (Memo& m : loaded) {
    std::uint8_t present = 0;
    if (!Get(f.get(), &present)) return false;
    if (present == 0) continue;
    std::uint32_t count = 0;
    if (!Get(f.get(), &count) || count > in_.corpus.size()) return false;
    m.bits.Resize(in_.corpus.size());
    for (std::uint32_t i = 0; i < count; ++i) {
      GraphId id = 0;
      if (!Get(f.get(), &id) || id >= in_.corpus.size()) return false;
      m.bits.Set(id);
    }
    m.valid = true;
  }

  // Spot check: recompute a spread of entries with full Method M.
  replay_ = std::make_unique<Replay>(in_);
  std::size_t present = 0;
  for (const Memo& m : loaded) present += m.valid ? 1 : 0;
  // Stream positions spread over the stream, so the sample (which also
  // times Method M for the run) is weighted like the stream.
  for (std::size_t i = 0; i < kLoadSpotChecks; ++i) {
    const std::uint32_t q = in_.stream[i * in_.stream.size() / kLoadSpotChecks];
    if (!loaded[q].valid) continue;
    FullEval(q, report);
    if (BitsHash(memo_[q].bits) != BitsHash(loaded[q].bits)) {
      base_.assign(n, Memo());
      return false;
    }
  }
  base_ = std::move(loaded);
  report->loaded += present;
  return true;
}

std::size_t Oracle::KnownBaseAnswers() const {
  std::size_t n = 0;
  for (const Memo& m : base_) n += m.valid ? 1 : 0;
  return n;
}

bool Oracle::Save(const std::string& path) const {
  const std::string tmp = path + ".tmp" + std::to_string(getpid());
  {
    File f(std::fopen(tmp.c_str(), "wb"), &std::fclose);
    if (!f) return false;
    bool ok = std::fwrite(kMemoMagic, 1, sizeof(kMemoMagic), f.get()) ==
                  sizeof(kMemoMagic) &&
              Put(f.get(), in_.query_set_key) &&
              Put(f.get(), static_cast<std::uint32_t>(base_.size()));
    for (const Memo& m : base_) {
      if (!ok) break;
      ok = Put(f.get(), static_cast<std::uint8_t>(m.valid ? 1 : 0));
      if (!m.valid || !ok) continue;
      std::vector<GraphId> ids;
      m.bits.ForEachSetBit(
          [&ids](std::size_t id) { ids.push_back(static_cast<GraphId>(id)); });
      ok = Put(f.get(), static_cast<std::uint32_t>(ids.size())) &&
           (ids.empty() ||
            std::fwrite(ids.data(), sizeof(GraphId), ids.size(), f.get()) ==
                ids.size());
    }
    if (!ok || std::fflush(f.get()) != 0) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace gcp::perfbench
