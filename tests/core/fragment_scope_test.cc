// Fragment-tier scope gate: each star is checked only where a query still
// needs it.
//
// The read slice AND-NOTs every resident fragment's valid non-answers out
// of the candidate set, then checks each star only on the surviving
// candidates outside that fragment's valid range (all survivors for a
// star not yet resident). These tests pin the resulting check counts on
// the 120-graph churn corpus of fragment_equivalence_test, with every
// answer checked against an uncached Method M engine:
//   (a) a drained query replays with zero star checks;
//   (b) a query never checks more than (candidates left after
//       whole-query pruning) × (stars it checks), and it checks at most
//       its own fragments;
//   (c) after a CON batch that changes k graphs, the same query checks at
//       most k × (its fragments) and extends resident fragments;
//   (d) under EVI a batch purges the store, so the next query recomputes.
//
// Most cases shrink the whole-query cache to one entry behind a
// one-entry window, so whole-query hits rarely empty the candidate set
// and the fragment tier faces nearly all of CS_M. Every drain then either
// keeps the resident entry or replaces it with the drained query's own,
// which is why a replay never meets a candidate the first run did not.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/graphcache_plus.hpp"
#include "dataset/aids_like.hpp"
#include "match/fragments.hpp"
#include "workload/type_a.hpp"

namespace gcp {
namespace {

std::vector<Graph> ScopeCorpus() {
  AidsLikeOptions opts;
  opts.num_graphs = 120;
  opts.mean_vertices = 9.0;
  opts.stddev_vertices = 3.0;
  opts.min_vertices = 4;
  opts.max_vertices = 14;
  opts.num_labels = 8;  // dense label space → shared one-hop stars
  opts.seed = 2468;
  return AidsLikeGenerator(opts).Generate();
}

struct Engine {
  std::unique_ptr<GraphDataset> ds;
  std::unique_ptr<GraphCachePlus> gc;
};

enum class WholeQueryCache { kOneEntry, kSmall };

Engine MakeEngine(const std::vector<Graph>& corpus, CacheModel model,
                  WholeQueryCache whole, bool method_m_only = false) {
  Engine e;
  e.ds = std::make_unique<GraphDataset>();
  e.ds->Bootstrap(corpus);
  GraphCachePlusOptions opts;
  opts.model = model;
  opts.use_ftv_index = true;
  opts.enable_exact_shortcut = false;
  if (whole == WholeQueryCache::kOneEntry) {
    opts.cache_capacity = 1;
    opts.window_capacity = 1;
  } else {
    opts.cache_capacity = 16;
    opts.window_capacity = 4;
  }
  if (method_m_only) {
    opts.enable_admission = false;
    opts.enable_empty_answer_shortcut = false;
  }
  e.gc = std::make_unique<GraphCachePlus>(e.ds.get(), opts);
  return e;
}

std::size_t NumFragments(const Graph& q) {
  const std::size_t cap = GraphCachePlusOptions{}.max_fragments_per_query;
  return DecomposeToFragments(q, cap).size();
}

/// Candidates the fragment tier received: those it pruned plus those left
/// for Method M.
std::uint64_t CandidatesAfterWholeQuery(const QueryMetrics& m) {
  return m.candidates_final + m.fragment_candidates_pruned;
}

class FragmentScopeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = ScopeCorpus();
    workload_ = GenerateTypeAByName(corpus_, "ZU", 60, /*seed=*/707,
                                    /*zipf_alpha=*/1.2);
  }

  /// Runs `q` on `e` and on the uncached oracle; answers must agree.
  QueryResult Checked(Engine& e, Engine& oracle, const Graph& q) {
    QueryResult r = e.gc->Query(q, QueryKind::kSubgraph);
    EXPECT_EQ(r.answer, oracle.gc->Query(q, QueryKind::kSubgraph).answer);
    return r;
  }

  std::vector<Graph> corpus_;
  Workload workload_;
};

TEST_F(FragmentScopeTest, DrainedQueryReplaysWithoutStarChecks) {
  Engine e =
      MakeEngine(corpus_, CacheModel::kCon, WholeQueryCache::kOneEntry);
  Engine oracle =
      MakeEngine(corpus_, CacheModel::kCon, WholeQueryCache::kOneEntry,
                 /*method_m_only=*/true);
  std::uint64_t first_checks = 0;
  std::uint64_t replay_pruned = 0;
  for (const auto& wq : workload_.queries) {
    const QueryResult first = Checked(e, oracle, wq.query);
    first_checks += first.metrics.fragment_star_checks;
    e.gc->FlushMaintenance();
    const QueryResult replay = Checked(e, oracle, wq.query);
    EXPECT_EQ(replay.metrics.fragment_star_checks, 0u);
    EXPECT_EQ(replay.metrics.fragment_computed, 0u);
    EXPECT_EQ(replay.metrics.fragment_gap_fills, 0u);
    // The store alone prunes at least as far as the first run's checks.
    EXPECT_LE(replay.metrics.candidates_final, first.metrics.candidates_final);
    replay_pruned += replay.metrics.fragment_candidates_pruned;
  }
  EXPECT_GT(first_checks, 0u);
  EXPECT_GT(replay_pruned, 0u);
}

TEST_F(FragmentScopeTest, StarChecksBoundedBySurvivorsTimesFragments) {
  for (const WholeQueryCache whole :
       {WholeQueryCache::kOneEntry, WholeQueryCache::kSmall}) {
    Engine e = MakeEngine(corpus_, CacheModel::kCon, whole);
    Engine oracle = MakeEngine(corpus_, CacheModel::kCon, whole,
                               /*method_m_only=*/true);
    AggregateMetrics agg;
    std::size_t step = 0;
    for (const auto& wq : workload_.queries) {
      if (++step % 10 == 0) {
        // A small CON batch, so some stars meet faded bits.
        const GraphId victim = static_cast<GraphId>(step % corpus_.size());
        for (Engine* x : {&e, &oracle}) {
          x->gc->ApplyDatasetChanges([&](GraphDataset& d) {
            d.AddGraph(corpus_[(7 * step) % corpus_.size()]);
            const Graph& g = d.graph(victim);
            if (g.NumVertices() >= 2 && g.HasEdge(0, 1)) {
              ASSERT_TRUE(d.RemoveEdge(victim, 0, 1).ok());
            }
          });
        }
      }
      const QueryResult r = Checked(e, oracle, wq.query);
      const std::uint64_t survivors = CandidatesAfterWholeQuery(r.metrics);
      const std::uint64_t checked_stars =
          r.metrics.fragment_computed + r.metrics.fragment_gap_fills;
      EXPECT_LE(checked_stars, NumFragments(wq.query)) << "step " << step;
      // Each checked star meets only graphs whole-query pruning left.
      EXPECT_LE(r.metrics.fragment_star_checks, survivors * checked_stars)
          << "step " << step;
      agg.Add(r.metrics);
    }
    EXPECT_GT(agg.fragment_star_checks, 0u);
    EXPECT_GT(agg.fragment_candidates_pruned, 0u);
  }
}

TEST_F(FragmentScopeTest, ConBatchGapFillsOnlyChangedGraphs) {
  Engine e =
      MakeEngine(corpus_, CacheModel::kCon, WholeQueryCache::kOneEntry);
  Engine oracle =
      MakeEngine(corpus_, CacheModel::kCon, WholeQueryCache::kOneEntry,
                 /*method_m_only=*/true);
  std::uint64_t gap_fills = 0;
  for (std::size_t i = 0; i < 12; ++i) {
    const Graph& q = workload_.queries[i].query;
    const QueryResult first = Checked(e, oracle, q);
    e.gc->FlushMaintenance();
    ASSERT_FALSE(first.answer.empty()) << "query " << i;

    // k changed graphs: two copies of answer graphs (fresh ids, unknown to
    // every fragment) and one answer graph losing an edge.
    std::set<GraphId> changed;
    const GraphId edited = first.answer[first.answer.size() / 2];
    for (Engine* x : {&e, &oracle}) {
      x->gc->ApplyDatasetChanges([&](GraphDataset& d) {
        changed.insert(d.AddGraph(d.graph(first.answer.front())));
        changed.insert(d.AddGraph(d.graph(first.answer.back())));
        const auto [u, v] = d.graph(edited).Edges().front();
        ASSERT_TRUE(d.RemoveEdge(edited, u, v).ok());
      });
    }
    changed.insert(edited);
    const std::size_t k = changed.size();
    const QueryResult next = Checked(e, oracle, q);
    EXPECT_LE(next.metrics.fragment_star_checks, k * NumFragments(q))
        << "query " << i;
    EXPECT_EQ(next.metrics.fragment_computed, 0u) << "query " << i;
    gap_fills += next.metrics.fragment_gap_fills;

    // The gap-fill restored full coverage: the replay checks nothing.
    e.gc->FlushMaintenance();
    EXPECT_EQ(Checked(e, oracle, q).metrics.fragment_star_checks, 0u)
        << "query " << i;
  }
  EXPECT_GT(gap_fills, 0u);
}

TEST_F(FragmentScopeTest, EviBatchPurgesStoreAndNextQueryRecomputes) {
  Engine e = MakeEngine(corpus_, CacheModel::kEvi, WholeQueryCache::kSmall);
  Engine oracle =
      MakeEngine(corpus_, CacheModel::kEvi, WholeQueryCache::kSmall,
                 /*method_m_only=*/true);
  for (std::size_t i = 0; i < 12; ++i) {
    const Graph& q = workload_.queries[i].query;
    Checked(e, oracle, q);
    e.gc->FlushMaintenance();
    ASSERT_GT(e.gc->CacheStatsSnapshot().approx_fragment_bytes, 0u);
    for (Engine* x : {&e, &oracle}) {
      x->gc->ApplyDatasetChanges([&](GraphDataset& d) {
        d.AddGraph(corpus_[(3 * i + 1) % corpus_.size()]);
      });
    }
    const QueryResult next = Checked(e, oracle, q);
    EXPECT_EQ(next.metrics.fragment_hits, 0u) << "query " << i;
    EXPECT_EQ(next.metrics.fragment_gap_fills, 0u) << "query " << i;
    EXPECT_GT(next.metrics.fragment_computed, 0u) << "query " << i;
  }
}

}  // namespace
}  // namespace gcp
