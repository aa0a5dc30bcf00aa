#include "obs/campaign.h"

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/event.h"
#include "core/fingerprint.h"
#include "core/runtime.h"

namespace systest::obs {

namespace {

std::vector<std::uint64_t> Bounds(const std::uint64_t* edges, std::size_t n) {
  return std::vector<std::uint64_t>(edges, edges + n);
}

std::vector<std::uint64_t> DecileBounds() {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t d = 0; d + 1 < kStepDeciles; ++d) bounds.push_back(d);
  return bounds;  // {0..8}: bucket index == decile, overflow bucket == 9
}

}  // namespace

CampaignMetrics::CampaignMetrics(MetricsRegistry& registry)
    : executions(registry.GetCounter(names::kExecutions)),
      steps(registry.GetCounter(names::kSteps)),
      deliveries(registry.GetCounter(names::kDeliveries)),
      pruned_executions(registry.GetCounter(names::kPrunedExecutions)),
      fingerprint_hits(registry.GetCounter(names::kFingerprintHits)),
      fingerprint_misses(registry.GetCounter(names::kFingerprintMisses)),
      bugs_found(registry.GetCounter(names::kBugsFound)),
      distinct_states(registry.GetGauge(names::kDistinctStates)),
      fault_crashes(registry.GetCounter(names::kFaultCrashes)),
      fault_restarts(registry.GetCounter(names::kFaultRestarts)),
      fault_drops(registry.GetCounter(names::kFaultDrops)),
      fault_duplications(registry.GetCounter(names::kFaultDuplications)),
      event_arena_allocations(
          registry.GetCounter(names::kEventArenaAllocations)),
      event_arena_bytes_high_water(
          registry.GetGauge(names::kEventArenaBytesHighWater)),
      visited_hot_hits(registry.GetGauge(names::kVisitedHotHits)),
      visited_run_probes(registry.GetGauge(names::kVisitedRunProbes)),
      visited_bloom_tp(registry.GetGauge(names::kVisitedBloomTruePositives)),
      visited_bloom_fp(registry.GetGauge(names::kVisitedBloomFalsePositives)),
      visited_compactions(registry.GetGauge(names::kVisitedCompactions)),
      visited_spilled_bytes(registry.GetGauge(names::kVisitedSpilledBytes)),
      visited_hot_entries(registry.GetGauge(names::kVisitedHotEntries)),
      visited_run_entries(registry.GetGauge(names::kVisitedRunEntries)),
      visited_runs(registry.GetGauge(names::kVisitedRuns)),
      enabled_set_size(registry.GetHistogram(
          names::kEnabledSetSize,
          Bounds(kEnabledSetBounds, kEnabledSetBucketCount - 1))),
      execution_steps(registry.GetHistogram(
          names::kExecutionSteps,
          Bounds(kExecutionStepsBounds, kExecutionStepsBucketCount - 1))),
      registry_(registry) {
  for (std::size_t k = 0; k < kFaultKinds; ++k) {
    fault_placement[k] = &registry.GetHistogram(
        std::string("fault_placement.") +
            FaultKindName(static_cast<FaultKind>(k)),
        DecileBounds());
  }
}

Counter& CampaignMetrics::DeliveryCounterFor(std::uint32_t type_id) {
  if (type_id < kMaxEventTypes) {
    Counter* cached = by_type_[type_id].load(std::memory_order_acquire);
    if (cached != nullptr) return *cached;
  }
  const std::lock_guard<std::mutex> lock(slow_path_mutex_);
  if (type_id < kMaxEventTypes) {
    Counter* cached = by_type_[type_id].load(std::memory_order_acquire);
    if (cached != nullptr) return *cached;
  }
  Counter& counter = registry_.GetCounter(
      std::string(names::kDeliveriesByTypePrefix) + EventTypeName(type_id));
  if (type_id < kMaxEventTypes) {
    by_type_[type_id].store(&counter, std::memory_order_release);
  }
  return counter;
}

Counter& CampaignMetrics::WorkerExecutions(std::size_t worker_index) {
  return registry_.GetCounter(std::string(names::kWorkerPrefix) +
                              std::to_string(worker_index) + ".executions");
}

WorkerObs::WorkerObs(CampaignMetrics& metrics, std::size_t worker_index,
                     bool coverage_enabled)
    : metrics(metrics),
      worker_executions(metrics.WorkerExecutions(worker_index)),
      coverage_enabled(coverage_enabled) {
  probe.coverage = coverage_enabled;
  // Baseline for the first flush's delta. Engines construct the WorkerObs on
  // the thread that runs its executions, so the TLS totals line up.
  last_alloc_ = systest::detail::ThreadEventAllocStats();
}

void WorkerObs::BeginExecution() noexcept { probe.Reset(); }

void WorkerObs::FlushExecution(const Runtime& runtime,
                               const ExecutionResult& result,
                               const VisitedSet* visited) {
  metrics.executions.Increment();
  worker_executions.Increment();
  metrics.steps.Add(result.steps);
  metrics.execution_steps.Record(result.steps);
  std::uint64_t total_deliveries = 0;
  probe.ForEachDelivery([&](std::uint32_t id, std::uint64_t count) {
    total_deliveries += count;
    metrics.DeliveryCounterFor(id).Add(count);
  });
  metrics.deliveries.Add(total_deliveries);
  std::uint64_t enabled_hist[kEnabledSetBucketCount];
  probe.FoldEnabledHistogram(enabled_hist);
  for (std::size_t b = 0; b < kEnabledSetBucketCount; ++b) {
    if (enabled_hist[b] != 0) {
      metrics.enabled_set_size.AddToBucket(b, enabled_hist[b]);
    }
  }
  if (result.pruned) metrics.pruned_executions.Increment();
  metrics.fingerprint_hits.Add(result.fingerprint_hits);
  metrics.fingerprint_misses.Add(result.fingerprint_misses);
  if (result.bug_found) metrics.bugs_found.Increment();
  metrics.fault_crashes.Add(result.faults.crashes);
  metrics.fault_restarts.Add(result.faults.restarts);
  metrics.fault_drops.Add(result.faults.drops);
  metrics.fault_duplications.Add(result.faults.duplications);
  for (std::size_t k = 0; k < kFaultKinds; ++k) {
    for (std::size_t d = 0; d < kStepDeciles; ++d) {
      if (probe.fault_deciles[k][d] != 0) {
        metrics.fault_placement[k]->AddToBucket(d, probe.fault_deciles[k][d]);
      }
    }
  }
  const systest::detail::EventAllocStats& alloc =
      systest::detail::ThreadEventAllocStats();
  metrics.event_arena_allocations.Add(alloc.arena_allocations -
                                      last_alloc_.arena_allocations);
  if (alloc.arena_bytes_high_water >
      metrics.event_arena_bytes_high_water.Value()) {
    metrics.event_arena_bytes_high_water.Set(alloc.arena_bytes_high_water);
  }
  last_alloc_ = alloc;
  if (visited != nullptr) {
    metrics.distinct_states.Set(visited->Size());
    if (flushes_since_visited_stats_++ % 32 == 0) {
      const VisitedStats stats = visited->Stats();
      metrics.visited_hot_hits.Set(stats.hot_hits);
      metrics.visited_run_probes.Set(stats.run_probes);
      metrics.visited_bloom_tp.Set(stats.bloom_true_positives);
      metrics.visited_bloom_fp.Set(stats.bloom_false_positives);
      metrics.visited_compactions.Set(stats.compactions);
      metrics.visited_spilled_bytes.Set(stats.spilled_bytes);
      metrics.visited_hot_entries.Set(stats.hot_entries);
      metrics.visited_run_entries.Set(stats.run_entries);
      metrics.visited_runs.Set(stats.runs);
    }
  }
  if (coverage_enabled) {
    coverage.AddExecution(runtime, probe);
  }
}

}  // namespace systest::obs
