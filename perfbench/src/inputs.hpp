// Workload definitions and seeded input generation for the GC+ benchmark.
//
// A workload fixes the corpus shape, the query generator, the client
// count and the change cadence. Inputs are made once per run from
// `--seed`: the corpus, a finite query stream (cycled by the client) and
// a change plan. The engine only ever sees the generated inputs.
// Corpus and query multiset are fixed; the seed orders the stream and
// draws the change plan.
#ifndef GCP_PERFBENCH_INPUTS_HPP_
#define GCP_PERFBENCH_INPUTS_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/aids_like.hpp"
#include "dataset/change_plan.hpp"
#include "graph/graph.hpp"

namespace gcp::perfbench {

enum class QueryGen {
  kTypeAZipfZipf,   ///< Type A "ZZ": Zipf source graph and start node.
  kTypeAUniform,    ///< Type A "UU": uniform source graph and start node.
  kTypeBNoAnswer20, ///< Type B, 20% of queries from the no-answer pool.
};

struct WorkloadSpec {
  std::string name;
  AidsLikeOptions corpus;  ///< Fixed corpus (its own seed, not --seed).
  QueryGen gen = QueryGen::kTypeAZipfZipf;
  std::size_t stream_len = 0;  ///< Pre-generated queries, cycled.
  /// In-run change cadence: one batch comes due every `batch_every`
  /// measured queries (0 = no changes while queries are measured).
  std::size_t batch_every = 0;
  std::size_t ops_per_batch = 10;
  /// With in-run changes, the span is cut into episodes of this many
  /// queries, each on a freshly set-up instance (see MeasureSpan).
  std::size_t episode_queries = 0;
  /// Serial update probe, in the measured span's pauses and after it, for
  /// workloads without in-run changes: this many batches, each followed
  /// by `probe_queries` queries (see Probe in main.cc).
  std::size_t probe_batches = 0;
  std::size_t probe_queries = 0;
  std::size_t warmup_queries = 0;  ///< Serial queries inside each set-up.
  /// The measured span runs at least this many queries, so the counter
  /// digest (taken after `digest_queries`) always exists.
  std::size_t min_queries = 0;
  std::size_t digest_queries = 0;  ///< 0 = no counter digest.
};

/// The three workloads; returns false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

/// Everything a run feeds the engine: the spec's corpus and query
/// multiset, ordered and given a change plan by the seed.
struct Inputs {
  std::vector<Graph> corpus;
  std::vector<Graph> queries;        ///< Distinct query graphs.
  std::vector<std::uint32_t> stream; ///< Query order, indices into queries.
  /// Warm-up order: the unshuffled stream's first warmup_queries entries,
  /// the same for every seed, so set-up cost does not depend on the seed.
  std::vector<std::uint32_t> warmup;
  /// Batches keyed by measured-query ticket (in-run changes) or by probe
  /// step (update probe). Targets resolve with Rng(plan_seed).
  ChangePlan plan;
  std::uint64_t plan_seed = 0;
  /// Hash of the corpus and the distinct queries; equal for every seed.
  std::uint64_t query_set_key = 0;
  std::uint64_t fingerprint = 0;  ///< Hash of corpus, stream and plan.
};

Inputs GenerateInputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Order-sensitive hash of a graph's labels and edges.
std::uint64_t GraphHash(const Graph& g);

}  // namespace gcp::perfbench

#endif  // GCP_PERFBENCH_INPUTS_HPP_
