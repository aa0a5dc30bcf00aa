// SysTest exploration subsystem.
//
// ParallelTestingEngine shards a TestConfig budget across N worker threads
// (an ExplorationPlan), each owning a PRIVATE Runtime and strategy instance —
// executions themselves stay serialized, exactly as the paper's methodology
// requires; only independent executions run concurrently, which is sound
// because each iteration's schedule is fully determined by its derived seed.
// Workers race to the first violation: a lock-free first-bug-wins claim stops
// the fleet, and the winning trace is re-replayed on the calling thread to
// guarantee the witness reproduces outside the worker that found it.
//
// Requirements on the harness: it must be safe to invoke concurrently from
// multiple threads (the standard pattern — a pure factory that only touches
// the Runtime it is handed — satisfies this; harnesses that write to shared
// globals do not).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "explore/exploration_plan.h"

namespace systest::explore {

struct ParallelOptions {
  /// Worker threads. 0 = std::thread::hardware_concurrency() (min 1).
  int threads = 0;
  /// Race the strategy portfolio (ExplorationPlan::Portfolio) instead of
  /// sharding the single configured strategy.
  bool portfolio = false;
  /// Re-run the winning trace on the calling thread after the workers join
  /// and record whether it reproduced (ParallelTestReport::replay_verified).
  bool verify_replay = true;
  /// Optional per-execution hook, invoked from WORKER threads after every
  /// execution with (worker index, worker-local 0-based iteration, result).
  /// Must be thread-safe; keep it cheap — it runs inside the exploration
  /// inner loop. It cannot perturb scheduling (executions stay serialized
  /// and fully seed-determined).
  std::function<void(int worker, std::uint64_t iteration,
                     const ExecutionResult& result)>
      on_iteration;
  /// Campaign observability (obs/campaign.h): when non-null, every worker
  /// flushes each execution into these shared sharded instruments (one TLS
  /// shard per worker thread — workers never contend on a counter line).
  obs::CampaignMetrics* metrics = nullptr;
  /// With metrics: also collect per-worker coverage heatmaps, merged into
  /// aggregate.coverage (and kept per worker in WorkerReport::coverage).
  bool coverage = false;
  /// Coverage-guided exploration (corpus/trace_corpus.h): the shared trace
  /// corpus, borrowed for the run. Every worker feeds newly-interesting
  /// traces back in (stateful runs only — the interest signal is the
  /// fingerprint-miss count), and "mutate" workers sample it. The corpus is
  /// striped like the shared fingerprint set, so workers contend only on
  /// shard collisions.
  corpus::TraceCorpus* corpus = nullptr;
};

/// Per-worker slice of the merged report — the per-strategy breakdown: the
/// worker's campaign-loop tally plus its plan assignment. With
/// ParallelOptions::coverage, aggregate.coverage is exactly the Merge of the
/// per-worker coverage slices, pinned by tests.
struct WorkerReport : WorkerTally {
  WorkerAssignment assignment;
};

struct ParallelTestReport {
  /// Merged totals (executions, steps, seconds summed over workers; wall
  /// time in total_seconds) plus the winning bug, if any. bug_iteration is
  /// the winning WORKER's local 1-based iteration; combined with the
  /// worker's assignment seed it identifies the exact derived seed, so
  /// `aggregate.bug_trace` replays the violation anywhere.
  TestReport aggregate;
  std::vector<WorkerReport> workers;
  int winning_worker = -1;
  /// Set when ParallelOptions::verify_replay confirmed the winning trace on
  /// the calling thread.
  bool replay_verified = false;

  /// Formatted per-worker breakdown table.
  [[nodiscard]] std::string BreakdownTable() const;
};

/// Formats the per-worker breakdown table (shared with api::TestSession
/// reports, which carry the same WorkerReport rows).
[[nodiscard]] std::string BreakdownTable(const std::vector<WorkerReport>& workers);

/// Parallel counterpart of TestingEngine. One engine per Run() call; the
/// engine itself is single-use from the calling thread's perspective but
/// spawns plan-many workers internally.
class ParallelTestingEngine {
 public:
  ParallelTestingEngine(TestConfig config, Harness harness,
                        ParallelOptions options = {});

  /// Runs the plan to completion (budget exhausted, time budget hit, or
  /// first bug when config.stop_on_first_bug).
  ParallelTestReport Run();

  [[nodiscard]] const ExplorationPlan& Plan() const noexcept { return plan_; }
  [[nodiscard]] int Threads() const noexcept { return threads_; }

 private:
  TestConfig config_;
  Harness harness_;
  ParallelOptions options_;
  int threads_;
  ExplorationPlan plan_;
};

}  // namespace systest::explore
