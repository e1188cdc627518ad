// Answer oracle: uncached Method M over the live graphs of the dataset
// state a query could have observed.
//
// The oracle replays the change plan on its own dataset, one batch per
// version, exactly as the client applied it. A measured answer is
// accepted when it equals Method M's answer at any version in the
// window [v_lo, v_hi] recorded around its Query call.
//
// Method M answers are memoised per distinct query. Moving a memoised
// answer to a later version re-verifies only the graphs the batches in
// between added, deleted or edited, through the same MethodM call, so
// every bit still comes from a Method M test of the graph as it is at
// that version. Every 64th such update is cross-checked against a full
// Method M evaluation; a disagreement aborts the run as a benchmark bug.
//
// Answers at version 0 (the initial corpus) may be saved to and loaded
// from a file keyed by Inputs::query_set_key, which every seed of a
// workload shares. A loaded file is spot-checked against full Method M
// evaluations of queries spread over the stream, and ignored when any
// disagrees; those evaluations also time Method M for the run.
#ifndef GCP_PERFBENCH_ORACLE_HPP_
#define GCP_PERFBENCH_ORACLE_HPP_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bitset.hpp"
#include "dataset/change.hpp"
#include "inputs.hpp"

namespace gcp::perfbench {

/// One measured Query call, as the oracle needs it.
struct QueryRecord {
  std::uint32_t query = 0;  ///< Distinct query id.
  std::uint32_t v_lo = 0;   ///< Batches finished before the call began.
  std::uint32_t v_hi = 0;   ///< Batches begun by the time it returned.
  std::uint64_t answer_hash = 0;
};

/// Hash of an ascending id list; the engine's answer and the oracle's
/// bitset hash identically when they hold the same ids.
std::uint64_t AnswerHash(std::span<const GraphId> ids);

struct OracleReport {
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
  std::vector<std::string> examples;  ///< First few wrong answers.
  std::uint64_t full_evals = 0;       ///< Whole-dataset Method M runs.
  std::uint64_t full_tests = 0;       ///< Sub-iso tests in those runs.
  std::int64_t full_ns = 0;           ///< Summed wall time of those runs.
  std::uint64_t incremental_evals = 0;
  std::uint64_t loaded = 0;  ///< Version-0 answers read from the file.
};

class Oracle {
 public:
  Oracle(const Inputs& in, std::size_t threads);
  ~Oracle();

  /// Checks one span's records against a fresh replay from version 0.
  /// Counters accumulate across calls into `report`.
  void Check(std::span<const QueryRecord> records, OracleReport* report);

  /// Reads saved version-0 answers; false when the file is absent, is for
  /// other inputs, or fails the spot check.
  bool Load(const std::string& path, OracleReport* report);
  /// Writes every version-0 answer known so far (atomically replaced).
  bool Save(const std::string& path) const;
  std::size_t KnownBaseAnswers() const;

 private:
  struct Replay;
  struct Memo {
    bool valid = false;
    std::uint32_t version = 0;
    DynamicBitset bits;
  };

  std::uint64_t AnswerHashAt(std::uint32_t q, OracleReport* report);
  void FullEval(std::uint32_t q, OracleReport* report);

  const Inputs& in_;
  std::size_t threads_;
  std::unique_ptr<Replay> replay_;
  std::vector<Memo> memo_;
  std::vector<Memo> base_;  ///< Version-0 answers, kept across replays.
};

}  // namespace gcp::perfbench

#endif  // GCP_PERFBENCH_ORACLE_HPP_
