#include "inputs.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "workload/type_a.hpp"
#include "workload/type_b.hpp"

namespace gcp::perfbench {

namespace {

// Batches in an in-run plan: enough that no run reaches the end of the
// plan (20000 batches × 25 queries = 500k measured queries).
constexpr std::uint32_t kInRunBatches = 20000;
// Seed of the fixed query multiset (the base stream before shuffling).
constexpr std::uint64_t kStreamSeed = 7;

AidsLikeOptions DefaultBenchShape() {
  AidsLikeOptions o;
  o.num_graphs = 2000;
  o.mean_vertices = 30.0;
  o.stddev_vertices = 12.0;
  o.max_vertices = 120;
  o.num_labels = 62;
  return o;
}

AidsLikeOptions PaperAidsShape() {
  AidsLikeOptions o;  // Defaults are the published AIDS shape.
  o.num_graphs = 2000;
  return o;
}

std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> specs;
  {
    WorkloadSpec s;
    s.name = "hot-read";
    s.corpus = DefaultBenchShape();
    s.gen = QueryGen::kTypeAZipfZipf;
    s.stream_len = 20000;
    s.probe_batches = 1000;
    s.probe_queries = 5;
    s.warmup_queries = 500;
    s.min_queries = 2000;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "churn";
    s.corpus = DefaultBenchShape();
    s.gen = QueryGen::kTypeBNoAnswer20;
    s.stream_len = 20000;
    s.batch_every = 25;
    s.episode_queries = 2000;
    s.warmup_queries = 300;
    s.min_queries = 1000;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "verify-heavy";
    s.corpus = PaperAidsShape();
    s.gen = QueryGen::kTypeAUniform;
    s.stream_len = 4000;
    s.probe_batches = 1000;
    s.probe_queries = 1;
    s.warmup_queries = 300;
    s.min_queries = 2000;
    s.digest_queries = 2000;
    specs.push_back(s);
  }
  return specs;
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t h = seed;
  HashCombine(h, stream);
  return h;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& s : AllWorkloads()) {
    if (s.name == name) {
      *spec = s;
      return true;
    }
  }
  return false;
}

std::uint64_t GraphHash(const Graph& g) {
  std::uint64_t h = g.NumVertices();
  for (const Label l : g.labels()) HashCombine(h, l);
  for (const auto& [u, v] : g.Edges()) {
    HashCombine(h, (static_cast<std::uint64_t>(u) << 32) | v);
  }
  return h;
}

Inputs GenerateInputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  // The corpus and the multiset of queries are fixed, as the paper's
  // dataset and query pools are; the seed orders the stream and draws the
  // change plan. Type A and Type B draw queries independently, so a
  // shuffled stream is distributed like a freshly drawn one.
  in.corpus = AidsLikeGenerator(spec.corpus).Generate();
  Workload w;
  switch (spec.gen) {
    case QueryGen::kTypeAZipfZipf:
      w = GenerateTypeAByName(in.corpus, "ZZ", spec.stream_len, kStreamSeed);
      break;
    case QueryGen::kTypeAUniform:
      w = GenerateTypeAByName(in.corpus, "UU", spec.stream_len, kStreamSeed);
      break;
    case QueryGen::kTypeBNoAnswer20: {
      TypeBOptions b;
      b.no_answer_prob = 0.2;
      b.answer_pool_size = 1000;
      b.no_answer_pool_size = 250;
      b.num_queries = spec.stream_len;
      b.seed = kStreamSeed;
      w = GenerateTypeB(in.corpus, b);
      break;
    }
  }

  // Identical graphs share one query id, so the oracle evaluates each
  // distinct query once per dataset version.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash;
  in.stream.reserve(w.queries.size());
  for (WorkloadQuery& wq : w.queries) {
    auto& ids = by_hash[GraphHash(wq.query)];
    std::uint32_t id = static_cast<std::uint32_t>(in.queries.size());
    for (const std::uint32_t cand : ids) {
      if (in.queries[cand] == wq.query) {
        id = cand;
        break;
      }
    }
    if (id == in.queries.size()) {
      ids.push_back(id);
      in.queries.push_back(std::move(wq.query));
    }
    in.stream.push_back(id);
  }
  in.warmup.assign(in.stream.begin(),
                   in.stream.begin() +
                       std::min(spec.warmup_queries, in.stream.size()));
  Rng order_rng(SubSeed(seed, 2));
  for (std::size_t i = in.stream.size(); i > 1; --i) {
    std::swap(in.stream[i - 1], in.stream[order_rng.UniformBelow(i)]);
  }

  std::uint64_t qs = Fnv1a(spec.name);
  for (const Graph& g : in.corpus) HashCombine(qs, GraphHash(g));
  for (const Graph& q : in.queries) HashCombine(qs, GraphHash(q));
  in.query_set_key = qs;

  const std::uint32_t batches =
      spec.batch_every > 0 ? kInRunBatches
                           : static_cast<std::uint32_t>(spec.probe_batches);
  Rng plan_rng(SubSeed(seed, 3));
  in.plan = ChangePlan::Generate(plan_rng, 1, batches,
                                 static_cast<std::uint32_t>(spec.ops_per_batch),
                                 static_cast<std::uint32_t>(in.corpus.size()));
  // Fixed cadence instead of the recipe's uniform batch times: batch k is
  // due at measured ticket (k+1)·batch_every, or at probe step k.
  for (std::uint32_t k = 0; k < in.plan.batches.size(); ++k) {
    in.plan.batches[k].at_query =
        spec.batch_every > 0
            ? (k + 1) * static_cast<std::uint32_t>(spec.batch_every)
            : k;
  }
  in.plan_seed = SubSeed(seed, 4);

  std::uint64_t fp = in.query_set_key;
  for (const std::uint32_t id : in.warmup) HashCombine(fp, id);
  for (const std::uint32_t id : in.stream) HashCombine(fp, id);
  for (const PlannedBatch& b : in.plan.batches) {
    HashCombine(fp, b.at_query);
    for (const PlannedOp& op : b.ops) {
      HashCombine(fp, (static_cast<std::uint64_t>(op.type) << 32) |
                          op.add_source);
    }
  }
  HashCombine(fp, in.plan_seed);
  in.fingerprint = fp;
  return in;
}

}  // namespace gcp::perfbench
