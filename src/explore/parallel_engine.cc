#include "explore/parallel_engine.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "explore/sharded_fingerprint_set.h"
#include "obs/campaign.h"

namespace systest::explore {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// The worker's own config: the fleet config narrowed to its assignment's
/// strategy, seed range and fault budgets. Plan shards carry their own fault
/// budgets (portfolio races fault-free workers against fault-heavy ones), so
/// each worker explores under ITS assignment's budgets, not the fleet's.
TestConfig WorkerConfig(const TestConfig& config,
                        const WorkerAssignment& assignment) {
  TestConfig worker = config;
  worker.strategy = assignment.strategy;
  worker.strategy_budget = assignment.strategy_budget;
  worker.seed = assignment.seed;
  worker.iterations = assignment.iterations;
  worker.max_crashes = assignment.max_crashes;
  worker.max_restarts = assignment.max_restarts;
  worker.drop_probability_den = assignment.drop_probability_den;
  worker.max_duplications = assignment.max_duplications;
  worker.max_partitions = assignment.max_partitions;
  worker.partition_heal_den = assignment.partition_heal_den;
  worker.fault_placement_points = assignment.fault_placement_points;
  return worker;
}

}  // namespace

std::string BreakdownTable(const std::vector<WorkerReport>& workers) {
  std::string out =
      "  worker  strategy            seeds                 executions      "
      "steps  bug\n";
  char line[160];
  for (const WorkerReport& w : workers) {
    const std::string seeds =
        "[" + std::to_string(w.assignment.seed) + "," +
        std::to_string(w.assignment.seed + w.assignment.iterations) + ")";
    std::snprintf(line, sizeof(line),
                  "  w%-5d  %-18s  %-20s  %10llu  %9llu  %s",
                  w.assignment.worker, w.strategy_name.c_str(), seeds.c_str(),
                  static_cast<unsigned long long>(w.executions),
                  static_cast<unsigned long long>(w.steps),
                  w.won ? "WINNER" : (w.bug_found ? "yes" : "-"));
    out += line;
    if (w.assignment.FaultsEnabled()) {
      std::snprintf(line, sizeof(line), "  faults=%llu",
                    static_cast<unsigned long long>(w.injected_faults.Total()));
      out += line;
    }
    out += '\n';
  }
  return out;
}

std::string ParallelTestReport::BreakdownTable() const {
  return explore::BreakdownTable(workers);
}

ParallelTestingEngine::ParallelTestingEngine(TestConfig config,
                                             Harness harness,
                                             ParallelOptions options)
    : config_(std::move(config)),
      harness_(std::move(harness)),
      options_(options),
      threads_(ResolveThreads(options.threads)),
      plan_(options.portfolio ? ExplorationPlan::Portfolio(config_, threads_)
                              : ExplorationPlan::Shard(config_, threads_)) {}

ParallelTestReport ParallelTestingEngine::Run() {
  ParallelTestReport report;
  const std::vector<WorkerAssignment>& assignments = plan_.Workers();
  const int n = static_cast<int>(assignments.size());
  report.workers.resize(static_cast<std::size_t>(n));

  // Stateful exploration: ONE visited set for the whole fleet, so a state
  // any worker discovered prunes every other worker's reconverging
  // schedules (sharded + striped-locked; see sharded_fingerprint_set.h).
  std::unique_ptr<ShardedFingerprintSet> visited;
  if (config_.stateful) {
    visited =
        std::make_unique<ShardedFingerprintSet>(VisitedSetOptions(config_));
  }
  Campaign campaign;
  campaign.visited = visited.get();
  campaign.corpus = options_.corpus;
  campaign.metrics = options_.metrics;
  campaign.coverage = options_.coverage;

  auto worker_fn = [&](int w) {
    WorkerReport& wr = report.workers[static_cast<std::size_t>(w)];
    wr.assignment = assignments[static_cast<std::size_t>(w)];
    IterationCallback on_iteration;
    if (options_.on_iteration) {
      on_iteration = [this, w](std::uint64_t i, const ExecutionResult& r) {
        options_.on_iteration(w, i, r);
      };
    }
    static_cast<WorkerTally&>(wr) =
        RunCampaignWorker(WorkerConfig(config_, wr.assignment), harness_, w,
                          campaign, on_iteration);
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) threads.emplace_back(worker_fn, w);
  for (std::thread& t : threads) t.join();

  TestReport& agg = report.aggregate;
  agg.total_seconds = SecondsSince(campaign.start);
  for (const WorkerReport& w : report.workers) AddWorkerTally(agg, w);
  FinishCampaignReport(agg, config_, campaign);
  agg.strategy_name =
      (options_.portfolio ? std::string("portfolio") : config_.strategy.str()) +
      " x" + std::to_string(n);
  if (options_.coverage) {
    // The fleet heatmap is exactly the sum of the per-worker reports (Merge
    // is commutative/associative over named machines and events).
    auto merged = std::make_shared<obs::CoverageReport>();
    for (const WorkerReport& w : report.workers) {
      if (w.coverage != nullptr) merged->Merge(*w.coverage);
    }
    agg.coverage = std::move(merged);
  }

  const int won = campaign.winner.load(std::memory_order_acquire);
  report.winning_worker = won;
  if (won >= 0) {
    agg.strategy_name =
        report.workers[static_cast<std::size_t>(won)].strategy_name;
    if (options_.verify_replay) {
      // The trace must witness the bug anywhere, not just inside the worker
      // that recorded it: replay it on THIS thread through the plain serial
      // engine before handing it to the caller.
      TestingEngine replayer(config_, harness_);
      const TestReport replayed = replayer.Replay(agg.bug_trace);
      report.replay_verified =
          replayed.bug_found && replayed.bug_kind == agg.bug_kind;
      if (config_.readable_trace_on_bug) {
        agg.execution_log = replayed.execution_log;
      }
    }
  }
  return report;
}

}  // namespace systest::explore
