// perfbench: the measuring half of the repository benchmark (run.py is the
// other half). One invocation runs one workload against the public API and
// prints one JSON document of raw measurements on stdout; run.py turns it
// into the benchmark's metrics.
//
//   perfbench --workload bughunt|stateful_fixed|guided --seed N --seconds S
//             [--traced --spans FILE]
//
// Without --traced the program runs the workload once, untraced ("plain"
// pass), plus repeated set-up probes. With --traced it runs the plain pass,
// then the same units again through the tracing hooks ("traced" pass), then
// the offline replays, and writes the span tree to FILE. All tracing lives
// in this file: a forwarding strategy registered through StrategyRegistry,
// a timing wrapper around the scenario's Harness and the engines' iteration
// callbacks. Nothing under src/ knows it is being traced.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/reporters.h"
#include "api/scenario_registry.h"
#include "api/strategy_registry.h"
#include "core/engine.h"
#include "corpus/trace_corpus.h"
#include "explore/parallel_engine.h"
#include "explore/sharded_fingerprint_set.h"
#include "obs/campaign.h"
#include "obs/metrics.h"

namespace {

using systest::ExecutionResult;
using systest::Harness;
using systest::Runtime;
using systest::SchedulingStrategy;
using systest::StrategyRegistry;
using systest::TestConfig;
using systest::TestingEngine;
using systest::TestReport;

// ---------------------------------------------------------------------------
// Workload definitions.

constexpr std::uint64_t kPaperBudget = 100'000;  // executions per hunt
constexpr std::uint64_t kMaxVisited = 100'000'000;
constexpr std::uint64_t kSeedStride = 0x9E3779B97F4A7C15ull;  // odd
constexpr int kSetupProbes = 16;  // per burst: before each unit, after the last
constexpr std::uint64_t kStatefulVnextExecs = 600;
constexpr std::uint64_t kStatefulSamplereplExecs = 2'000;
constexpr std::uint64_t kGuidedExecs = 3'000;
constexpr int kGuidedWorkers = 2;
constexpr std::size_t kTrailCap = 8u << 20;  // fingerprints kept per target
constexpr std::size_t kCorpusSampleCap = 512;
constexpr std::uint64_t kObsPairUnits = 4;  // stateful units run obs on/off
constexpr std::uint64_t kSliceExecs = 64;  // executions per timed slice

struct Param {
  const char* key;
  const char* value;
};

/// One campaign's declarative input: a registered scenario, its parameters
/// and, for hunts, the reference length (executions to bug at seed 0).
struct Target {
  const char* label;
  const char* scenario;
  const char* domain;
  std::vector<Param> params;
  std::uint64_t reference = 0;
};

// Reference lengths: executions-to-bug of each hunt at benchmark seed 0
// (every scenario's registered default seed), measured on this code.
const std::vector<Target>& Hunts() {
  static const std::vector<Target> hunts = {
      {"QueryAtomicFilterShadowing", "mtable-migration", "mtable",
       {{"bug", "QueryAtomicFilterShadowing"}}, 1'568},
      {"QueryStreamedLock", "mtable-migration", "mtable",
       {{"bug", "QueryStreamedLock"}}, 126},
      {"QueryStreamedBackUpNewStream", "mtable-migration", "mtable",
       {{"bug", "QueryStreamedBackUpNewStream"}}, 55'592},
      {"DeleteNoLeaveTombstonesEtag", "mtable-migration", "mtable",
       {{"bug", "DeleteNoLeaveTombstonesEtag"}}, 103},
      {"DeletePrimaryKey", "mtable-migration", "mtable",
       {{"bug", "DeletePrimaryKey"}}, 5},
      {"EnsurePartitionSwitchedFromPopulated", "mtable-migration", "mtable",
       {{"bug", "EnsurePartitionSwitchedFromPopulated"}}, 1},
      {"TombstoneOutputETag", "mtable-migration", "mtable",
       {{"bug", "TombstoneOutputETag"}}, 223},
      {"QueryStreamedFilterShadowing", "mtable-migration", "mtable",
       {{"bug", "QueryStreamedFilterShadowing"}}, 1'604},
      {"MigrateSkipPreferOld", "mtable-migration", "mtable",
       {{"bug", "MigrateSkipPreferOld"}}, 35},
      {"MigrateSkipUseNewWithTombstones", "mtable-migration", "mtable",
       {{"bug", "MigrateSkipUseNewWithTombstones"}}, 18'093},
      {"InsertBehindMigrator", "mtable-migration", "mtable",
       {{"bug", "InsertBehindMigrator"}}, 1},
      {"samplerepl-safety", "samplerepl-safety", "samplerepl", {}, 34},
      {"samplerepl-liveness", "samplerepl-liveness", "samplerepl", {}, 1},
      {"samplerepl-node-crash", "samplerepl-node-crash", "samplerepl", {}, 10},
      {"vnext-liveness", "vnext-liveness", "vnext", {}, 10},
      {"fabric-failover", "fabric-failover", "fabric", {}, 2},
      {"fabric-pipeline", "fabric-pipeline", "fabric", {}, 2},
      {"chaintable-lost-update", "chaintable-lost-update", "chaintable", {}, 1},
  };
  return hunts;
}

const std::vector<Param>& ScaledSampleRepl() {
  static const std::vector<Param> params = {
      {"nodes", "5"}, {"requests", "4"}, {"value-space", "5"}};
  return params;
}

const std::vector<Target>& StatefulControls() {
  static const std::vector<Target> controls = {
      {"vnext-fixed", "vnext-fixed", "vnext", {}, kStatefulVnextExecs},
      {"samplerepl-fixed", "samplerepl-fixed", "samplerepl",
       ScaledSampleRepl(), kStatefulSamplereplExecs},
  };
  return controls;
}

const Target& GuidedTarget() {
  static const Target target = {"samplerepl-fixed", "samplerepl-fixed",
                                "samplerepl", ScaledSampleRepl(),
                                kGuidedExecs};
  return target;
}

/// Seed offset of unit `unit` of benchmark seed `seed`; (0, 0) keeps every
/// scenario's registered default seed. The odd stride spreads units far
/// apart, because the built-in strategies seed iteration i from base + i.
std::uint64_t SeedOffset(std::uint64_t seed, std::uint64_t unit) {
  return (seed * 65'536 + unit) * kSeedStride;
}

// ---------------------------------------------------------------------------
// Clocks and process counters.

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kEpoch)
          .count());
}

double Seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Tracing. Spans live in memory until the run ends.

/// One execution span with its aggregated children: the PrepareIteration
/// call, the harness calls and the strategy decisions.
struct ExecSpan {
  std::uint32_t campaign = 0;
  std::uint32_t worker = 0;
  std::uint64_t iteration = 0;  ///< position in the campaign's seed stream
  std::uint64_t start = 0;      ///< PrepareIteration entry
  std::uint64_t end = 0;        ///< iteration callback entry
  std::uint64_t prepare_ns = 0;
  std::uint64_t gap_ns = 0;     ///< previous callback exit -> start
  std::uint64_t harness_ns = 0;
  std::uint64_t harness_calls = 0;
  std::uint64_t decisions = 0;
  std::uint64_t decision_ns = 0;
  std::uint64_t steps = 0;
};

/// Per-thread accumulator for the execution in flight.
struct WorkerTrace {
  std::uint64_t prepare_start = 0;
  std::uint64_t prepare_end = 0;
  std::uint64_t last_callback_end = 0;
  std::uint64_t harness_ns = 0;
  std::uint64_t harness_calls = 0;
  std::uint64_t decisions = 0;
  std::uint64_t decision_ns = 0;
  std::vector<ExecSpan> spans;
};

/// A non-execution span: workload, hunt or campaign, replay, offline replay.
struct Span {
  std::string kind;
  std::string id;
  std::string parent;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::vector<std::pair<const char*, double>> attrs;  ///< extra fields
};

std::mutex g_trace_mutex;
std::vector<std::unique_ptr<WorkerTrace>> g_worker_traces;
std::vector<Span> g_spans;
thread_local WorkerTrace* tls_trace = nullptr;

WorkerTrace& ThreadTrace() {
  if (tls_trace == nullptr) {
    const std::lock_guard<std::mutex> lock(g_trace_mutex);
    g_worker_traces.push_back(std::make_unique<WorkerTrace>());
    tls_trace = g_worker_traces.back().get();
  }
  return *tls_trace;
}

std::size_t AddSpan(Span span) {
  const std::lock_guard<std::mutex> lock(g_trace_mutex);
  g_spans.push_back(std::move(span));
  return g_spans.size() - 1;
}

void EndSpan(std::size_t index,
             std::vector<std::pair<const char*, double>> attrs = {}) {
  const std::lock_guard<std::mutex> lock(g_trace_mutex);
  g_spans[index].end = NowNs();
  if (!attrs.empty()) g_spans[index].attrs = std::move(attrs);
}

struct DecisionTimer {
  explicit DecisionTimer(WorkerTrace& trace) : trace_(trace) {}
  ~DecisionTimer() {
    trace_.decision_ns += NowNs() - start_;
    ++trace_.decisions;
  }
  DecisionTimer(const DecisionTimer&) = delete;
  DecisionTimer& operator=(const DecisionTimer&) = delete;

 private:
  WorkerTrace& trace_;
  std::uint64_t start_ = NowNs();
};

/// Forwards every scheduling call to a registered strategy and times it.
/// Decisions are aggregated per execution: one span per decision would mean
/// millions of spans.
class TracedStrategy final : public SchedulingStrategy {
 public:
  explicit TracedStrategy(std::unique_ptr<SchedulingStrategy> inner)
      : inner_(std::move(inner)), trace_(ThreadTrace()) {}

  void PrepareIteration(std::uint64_t iteration,
                        std::uint64_t max_steps) override {
    // The engine configures fault placement on the strategy it holds; the
    // wrapped strategy samples it, so hand the setting through.
    inner_->SetFaultPlacementPoints(FaultPlacementPoints());
    trace_.prepare_start = NowNs();
    inner_->PrepareIteration(iteration, max_steps);
    trace_.prepare_end = NowNs();
  }
  systest::MachineId Next(std::span<const systest::MachineId> enabled,
                          std::uint64_t step) override {
    const DecisionTimer timer(trace_);
    return inner_->Next(enabled, step);
  }
  bool NextBool() override {
    const DecisionTimer timer(trace_);
    return inner_->NextBool();
  }
  std::uint64_t NextInt(std::uint64_t bound) override {
    const DecisionTimer timer(trace_);
    return inner_->NextInt(bound);
  }
  systest::FaultDecision NextFault(const systest::FaultContext& ctx) override {
    const DecisionTimer timer(trace_);
    return inner_->NextFault(ctx);
  }
  systest::DeliveryFault NextDeliveryFault(
      const systest::DeliveryFaultContext& ctx) override {
    const DecisionTimer timer(trace_);
    return inner_->NextDeliveryFault(ctx);
  }
  [[nodiscard]] std::string Name() const override { return inner_->Name(); }
  [[nodiscard]] std::uint64_t PruneHoldoffSteps() const noexcept override {
    return inner_->PruneHoldoffSteps();
  }

 private:
  std::unique_ptr<SchedulingStrategy> inner_;
  WorkerTrace& trace_;
};

std::string TracedName(const std::string& inner) {
  return "perfbench-traced-" + inner;
}

void RegisterTracedStrategies() {
  for (const char* inner : {"random", "mutate"}) {
    const std::string name(inner);
    StrategyRegistry::Instance().Register(
        TracedName(name), "timing wrapper around " + name,
        [name](std::uint64_t seed, int budget) {
          return std::make_unique<TracedStrategy>(
              StrategyRegistry::Instance().Create(name, seed, budget));
        });
  }
}

Harness TimedHarness(Harness inner) {
  return [inner = std::move(inner)](Runtime& runtime) {
    WorkerTrace& trace = ThreadTrace();
    const std::uint64_t start = NowNs();
    inner(runtime);
    trace.harness_ns += NowNs() - start;
    ++trace.harness_calls;
  };
}

/// Closes the execution span at the iteration callback. Returns the trace
/// so callers can attach their own recording before the callback exits.
WorkerTrace& RecordExecution(std::uint32_t campaign, std::uint32_t worker,
                             std::uint64_t iteration,
                             const ExecutionResult& result) {
  WorkerTrace& trace = ThreadTrace();
  ExecSpan span;
  span.campaign = campaign;
  span.worker = worker;
  span.iteration = iteration;
  span.start = trace.prepare_start;
  span.end = NowNs();
  span.prepare_ns = trace.prepare_end - trace.prepare_start;
  span.gap_ns = trace.last_callback_end == 0
                    ? 0
                    : trace.prepare_start - trace.last_callback_end;
  span.harness_ns = trace.harness_ns;
  span.harness_calls = trace.harness_calls;
  span.decisions = trace.decisions;
  span.decision_ns = trace.decision_ns;
  span.steps = result.steps;
  trace.spans.push_back(span);
  trace.harness_ns = trace.harness_calls = 0;
  trace.decisions = trace.decision_ns = 0;
  return trace;
}

// ---------------------------------------------------------------------------
// Scenario resolution (the api layer).

struct Resolved {
  Harness harness;  ///< untimed, for replay and plain passes
  TestConfig config;
  std::uint64_t resolve_ns = 0;
};

template <typename Configure>
Resolved Resolve(const Target& target, std::uint64_t seed_offset,
                 Configure&& configure) {
  const std::uint64_t start = NowNs();
  const systest::api::Scenario& scenario =
      systest::api::ScenarioRegistry::Instance().Get(target.scenario);
  systest::api::ParamMap params;
  for (const Param& p : target.params) params.Set(p.key, p.value);
  Resolved out;
  out.harness = scenario.make(params);
  out.config =
      scenario.default_config ? scenario.default_config() : TestConfig{};
  out.config.seed += seed_offset;
  out.config.readable_trace_on_bug = false;
  out.config.time_budget_seconds = 0;
  configure(out.config);
  out.config.Validate();
  out.resolve_ns = NowNs() - start;
  return out;
}

// ---------------------------------------------------------------------------
// JSON output.

class Json {
 public:
  Json& Key(std::string_view key) {
    Sep();
    out_ += '"';
    out_ += key;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ += buf;
    return *this;
  }
  Json& Int(std::uint64_t v) {
    Sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& Str(const std::string& v) {
    Sep();
    out_ += '"';
    out_ += systest::api::JsonEscape(v);
    out_ += '"';
    return *this;
  }
  Json& Open(char brace) {
    Sep();
    out_ += brace;
    fresh_ = true;
    return *this;
  }
  Json& Close(char brace) {
    out_ += brace;
    fresh_ = false;
    return *this;
  }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// ---------------------------------------------------------------------------
// Pass results.

/// A run of consecutive executions of one engine, timed from the previous
/// slice's last callback (or from just before the engine runs) to its own.
struct Slice {
  std::uint64_t executions = 0;
  std::uint64_t steps = 0;
  std::uint64_t ns = 0;
};

/// Cuts an engine's executions into slices of kSliceExecs and times each.
class SliceTimer {
 public:
  explicit SliceTimer(std::vector<Slice>* out) : out_(out), mark_(NowNs()) {}
  void Add(const ExecutionResult& result) {
    open_.steps += result.steps;
    if (++open_.executions == kSliceExecs) Close();
  }
  /// Closes the last, partial slice.
  void Finish() {
    if (open_.executions > 0) Close();
  }

 private:
  void Close() {
    const std::uint64_t now = NowNs();
    open_.ns = now - mark_;
    out_->push_back(open_);
    open_ = Slice{};
    mark_ = now;
  }
  std::vector<Slice>* out_;
  Slice open_;
  std::uint64_t mark_;
};

struct HuntResult {
  const Target* target = nullptr;
  bool found = false;
  bool reproduced = false;
  std::string bug_kind;
  std::uint64_t executions_to_bug = 0;  ///< 0 when not found
  std::uint64_t executions = 0;
  std::uint64_t steps = 0;
  double seconds = 0;         ///< wall time of the whole hunt
  std::vector<Slice> slices;  ///< plain pass: the reference-length phase
  double replay_ms = 0;
};

struct CampaignResult {
  const Target* target = nullptr;
  std::uint64_t executions = 0;
  std::uint64_t steps = 0;
  double seconds = 0;
  double cpu_seconds = 0;
  std::uint64_t violations = 0;
  std::uint64_t distinct_states = 0;
  std::uint64_t pruned = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  bool saturated = false;
  systest::VisitedStats visited;
  std::uint64_t events = 0;  ///< obs deliveries (0 without obs)
  std::vector<std::pair<std::uint64_t, double>> workers;  // executions, s
  systest::corpus::CorpusStats corpus;
};

struct PassResult {
  std::uint64_t units = 0;
  double seconds = 0;  ///< wall time of all units
  std::vector<std::vector<HuntResult>> hunts;          // per unit
  std::vector<std::vector<CampaignResult>> campaigns;  // per unit
  std::vector<std::uint64_t> resolve_ns;               // unit 0, per target
};

void WritePass(Json& j, const PassResult& pass) {
  j.Open('{');
  j.Key("units").Int(pass.units);
  j.Key("seconds").Num(pass.seconds);
  std::uint64_t resolve_ns = 0;
  for (const std::uint64_t ns : pass.resolve_ns) resolve_ns += ns;
  j.Key("resolve_ms").Num(static_cast<double>(resolve_ns) / 1e6);
  j.Key("hunts").Open('[');
  for (const auto& unit : pass.hunts) {
    j.Open('[');
    for (const HuntResult& h : unit) {
      j.Open('{');
      j.Key("name").Str(h.target->label);
      j.Key("domain").Str(h.target->domain);
      j.Key("reference").Int(h.target->reference);
      j.Key("found").Bool(h.found);
      j.Key("reproduced").Bool(h.reproduced);
      j.Key("bug_kind").Str(h.bug_kind);
      j.Key("executions_to_bug").Int(h.executions_to_bug);
      j.Key("executions").Int(h.executions);
      j.Key("steps").Int(h.steps);
      j.Key("seconds").Num(h.seconds);
      j.Key("replay_ms").Num(h.replay_ms);
      j.Key("slices").Open('[');
      for (const Slice& slice : h.slices) {
        j.Open('[');
        j.Int(slice.executions).Int(slice.steps).Int(slice.ns);
        j.Close(']');
      }
      j.Close(']');
      j.Close('}');
    }
    j.Close(']');
  }
  j.Close(']');
  j.Key("campaigns").Open('[');
  for (const auto& unit : pass.campaigns) {
    j.Open('[');
    for (const CampaignResult& c : unit) {
      j.Open('{');
      j.Key("name").Str(c.target->label);
      j.Key("domain").Str(c.target->domain);
      j.Key("executions").Int(c.executions);
      j.Key("steps").Int(c.steps);
      j.Key("seconds").Num(c.seconds);
      j.Key("cpu_seconds").Num(c.cpu_seconds);
      j.Key("violations").Int(c.violations);
      j.Key("distinct_states").Int(c.distinct_states);
      j.Key("pruned").Int(c.pruned);
      j.Key("hits").Int(c.hits);
      j.Key("misses").Int(c.misses);
      j.Key("saturated").Bool(c.saturated);
      j.Key("compactions").Int(c.visited.compactions);
      j.Key("runs").Int(c.visited.runs);
      j.Key("bloom_fp").Int(c.visited.bloom_false_positives);
      j.Key("events").Int(c.events);
      j.Key("workers").Open('[');
      for (const auto& [executions, seconds] : c.workers) {
        j.Open('{');
        j.Key("executions").Int(executions);
        j.Key("seconds").Num(seconds);
        j.Close('}');
      }
      j.Close(']');
      j.Key("corpus").Open('{');
      j.Key("entries").Int(c.corpus.entries);
      j.Key("added").Int(c.corpus.added);
      j.Key("duplicates").Int(c.corpus.duplicates);
      j.Key("sampled").Int(c.corpus.sampled);
      j.Close('}');
      j.Close('}');
    }
    j.Close(']');
  }
  j.Close(']');
  j.Close('}');
}

// ---------------------------------------------------------------------------
// Recording shared by the traced pass and the offline replays.

struct Recording {
  std::mutex mutex;
  /// Fingerprint trail per target, in execution order per worker, over as
  /// many units as fit under kTrailCap: one unit of guided barely fills the
  /// sharded set's per-shard hot levels, so its replay may not compact.
  std::map<std::string, std::vector<systest::Fingerprint>> trails;
  struct CorpusSample {
    systest::Trace trace;
    std::uint64_t new_states = 0;
  };
  std::vector<CorpusSample> corpus_samples;
};

struct PassOptions {
  bool traced = false;
  bool obs = true;             ///< stateful_fixed: attach the metrics plane
  Recording* record = nullptr;  ///< traced pass: keep trails and traces
  std::vector<double>* setup_s = nullptr;  ///< plain pass: set-up probes
};

std::uint32_t CampaignSpan(const std::string& id, const std::string& parent) {
  Span span;
  span.kind = "campaign";
  span.id = id;
  span.parent = parent;
  span.start = NowNs();
  return static_cast<std::uint32_t>(AddSpan(std::move(span)));
}

// ---------------------------------------------------------------------------
// bughunt: the paper's Table 2 question, one hunt per known bug.

/// Runs one engine over `iterations` executions of the hunt's seed stream
/// starting at stream position `first`; returns its report. With `slices`
/// (untraced only) it also times every kSliceExecs executions.
TestReport RunHuntPhase(const Resolved& r, const Harness& harness,
                        std::uint64_t first, std::uint64_t iterations,
                        bool stop_on_first_bug, const PassOptions& opt,
                        std::uint32_t campaign,
                        std::vector<Slice>* slices = nullptr) {
  TestConfig config = r.config;
  config.seed += first;
  config.iterations = iterations;
  config.stop_on_first_bug = stop_on_first_bug;
  if (opt.traced) config.strategy = TracedName("random");
  TestingEngine engine(config, harness);
  if (opt.traced) {
    ThreadTrace().last_callback_end = 0;  // a new engine: no gap to measure
    engine.SetIterationCallback(
        [campaign, first](std::uint64_t iteration,
                          const ExecutionResult& result) {
          WorkerTrace& trace =
              RecordExecution(campaign, 0, first + iteration, result);
          trace.last_callback_end = NowNs();
        });
  }
  if (slices == nullptr) return engine.Run();
  SliceTimer timer(slices);
  engine.SetIterationCallback(
      [&](std::uint64_t, const ExecutionResult& result) { timer.Add(result); });
  TestReport report = engine.Run();
  timer.Finish();
  return report;
}

HuntResult RunHunt(const Target& target, std::uint64_t offset,
                   const PassOptions& opt, std::uint64_t unit,
                   std::vector<std::uint64_t>* resolve_ns) {
  HuntResult out;
  out.target = &target;
  const std::string id = "bughunt/" + std::string(target.label) + "/u" +
                         std::to_string(unit);
  const std::uint32_t campaign = opt.traced ? CampaignSpan(id, "bughunt") : 0;
  const Resolved r = Resolve(target, offset, [](TestConfig& c) {
    c.strategy = "random";
    c.stateful = false;
  });
  if (resolve_ns != nullptr) resolve_ns->push_back(r.resolve_ns);
  const Harness harness = opt.traced ? TimedHarness(r.harness) : r.harness;

  const std::uint64_t start = NowNs();
  // Phase 1: exactly the reference length, bug or not, so the verdict time
  // measures the same work on every seed.
  TestReport first =
      RunHuntPhase(r, harness, 0, target.reference,
                   /*stop_on_first_bug=*/false, opt, campaign,
                   opt.traced ? nullptr : &out.slices);
  out.executions = first.executions;
  out.steps = first.total_steps;
  TestReport found = std::move(first);
  std::uint64_t before = 0;
  if (!found.bug_found && target.reference < kPaperBudget) {
    // Phase 2: the rest of the paper's budget on the same seed stream, so
    // executions-to-bug is exactly that of one uninterrupted hunt.
    TestReport rest = RunHuntPhase(r, harness, target.reference,
                                   kPaperBudget - target.reference,
                                   /*stop_on_first_bug=*/true, opt, campaign);
    out.executions += rest.executions;
    out.steps += rest.total_steps;
    before = target.reference;
    found = std::move(rest);
  }
  out.seconds = Seconds(NowNs() - start);
  if (opt.traced) EndSpan(campaign);

  if (found.bug_found) {
    out.found = true;
    out.executions_to_bug = before + found.bug_iteration;
    out.bug_kind = std::string(systest::ToString(found.bug_kind));
    const std::uint64_t replay_start = NowNs();
    std::size_t replay_span = 0;
    if (opt.traced) {
      replay_span =
          AddSpan({"replay", id + "/replay", id, replay_start, 0, {}});
    }
    TestingEngine replayer(r.config, r.harness);
    const TestReport replayed = replayer.Replay(found.bug_trace);
    out.replay_ms = static_cast<double>(NowNs() - replay_start) / 1e6;
    if (opt.traced) EndSpan(replay_span);
    out.reproduced = replayed.bug_found && replayed.bug_kind == found.bug_kind;
  }
  return out;
}

// ---------------------------------------------------------------------------
// stateful_fixed and guided: fixed-budget campaigns on fixed controls.

CampaignResult RunStateful(const Target& target, std::uint64_t offset,
                           const PassOptions& opt, std::uint64_t unit,
                           std::vector<std::uint64_t>* resolve_ns) {
  CampaignResult out;
  out.target = &target;
  const std::string id = "stateful_fixed/" + std::string(target.label) +
                         "/u" + std::to_string(unit);
  const std::uint32_t campaign =
      opt.traced ? CampaignSpan(id, "stateful_fixed") : 0;
  if (opt.traced) ThreadTrace().last_callback_end = 0;
  std::vector<systest::Fingerprint>* trail = nullptr;
  if (opt.record != nullptr &&
      opt.record->trails[target.label].size() < kTrailCap) {
    trail = &opt.record->trails[target.label];
  }
  const Resolved r = Resolve(target, offset, [&](TestConfig& c) {
    c.strategy = opt.traced ? TracedName("random") : "random";
    c.stateful = true;
    c.max_visited = kMaxVisited;
    c.iterations = target.reference;
    c.stop_on_first_bug = false;
    c.record_fingerprint_trail = trail != nullptr;
  });
  if (resolve_ns != nullptr) resolve_ns->push_back(r.resolve_ns);

  std::unique_ptr<systest::obs::MetricsRegistry> registry;
  std::unique_ptr<systest::obs::CampaignMetrics> metrics;
  if (opt.obs) {
    registry = std::make_unique<systest::obs::MetricsRegistry>();
    metrics = std::make_unique<systest::obs::CampaignMetrics>(*registry);
  }
  const std::uint64_t start = NowNs();
  const double cpu_start = CpuSeconds();
  TestingEngine engine(r.config,
                       opt.traced ? TimedHarness(r.harness) : r.harness);
  engine.SetObservability(metrics.get(), /*coverage=*/opt.obs);
  std::uint64_t violations = 0;
  engine.SetIterationCallback([&](std::uint64_t iteration,
                                  const ExecutionResult& result) {
    if (result.bug_found) ++violations;
    if (!opt.traced) return;
    WorkerTrace& trace = RecordExecution(campaign, 0, iteration, result);
    if (trail != nullptr && trail->size() < kTrailCap) {
      trail->insert(trail->end(), result.fingerprint_trail.begin(),
                    result.fingerprint_trail.end());
    }
    trace.last_callback_end = NowNs();
  });
  const TestReport report = engine.Run();
  out.seconds = Seconds(NowNs() - start);
  out.cpu_seconds = CpuSeconds() - cpu_start;
  if (opt.traced) EndSpan(campaign);
  out.executions = report.executions;
  out.steps = report.total_steps;
  out.violations = violations;
  out.distinct_states = report.distinct_states;
  out.pruned = report.pruned_executions;
  out.hits = report.fingerprint_hits;
  out.misses = report.fingerprint_misses;
  out.saturated = report.VisitedSetSaturated();
  out.visited = report.visited;
  if (metrics != nullptr) out.events = metrics->deliveries.Value();
  out.workers.emplace_back(report.executions, report.total_seconds);
  return out;
}

int GuidedWorkers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min<unsigned>(kGuidedWorkers, hw));
}

CampaignResult RunGuided(const Target& target, std::uint64_t offset,
                         const PassOptions& opt, std::uint64_t unit,
                         std::vector<std::uint64_t>* resolve_ns) {
  CampaignResult out;
  out.target = &target;
  const std::string id =
      "guided/" + std::string(target.label) + "/u" + std::to_string(unit);
  const std::uint32_t campaign = opt.traced ? CampaignSpan(id, "guided") : 0;
  Recording* record = opt.record;
  std::vector<systest::Fingerprint>* trail = nullptr;
  if (record != nullptr) {
    const std::lock_guard<std::mutex> lock(record->mutex);
    if (record->trails[target.label].size() < kTrailCap) {
      trail = &record->trails[target.label];
    }
  }
  const Resolved r = Resolve(target, offset, [&](TestConfig& c) {
    c.strategy = opt.traced ? TracedName("mutate") : "mutate";
    c.stateful = true;
    c.corpus_mutation = true;
    c.max_visited = kMaxVisited;
    c.iterations = target.reference;
    c.stop_on_first_bug = false;
    c.record_fingerprint_trail = trail != nullptr;
  });
  if (resolve_ns != nullptr) resolve_ns->push_back(r.resolve_ns);

  const std::uint64_t start = NowNs();
  const double cpu_start = CpuSeconds();
  systest::corpus::TraceCorpus corpus;
  const systest::corpus::ScopedActiveCorpus active(&corpus);
  std::atomic<std::uint64_t> violations{0};
  systest::explore::ParallelOptions options;
  options.threads = GuidedWorkers();
  options.corpus = &corpus;
  options.on_iteration = [&, record](int worker, std::uint64_t iteration,
                                     const ExecutionResult& result) {
    if (result.bug_found) violations.fetch_add(1, std::memory_order_relaxed);
    if (!opt.traced) return;
    WorkerTrace& trace = RecordExecution(
        campaign, static_cast<std::uint32_t>(worker), iteration, result);
    if (record != nullptr) {
      const std::lock_guard<std::mutex> lock(record->mutex);
      if (trail != nullptr && trail->size() < kTrailCap) {
        trail->insert(trail->end(), result.fingerprint_trail.begin(),
                      result.fingerprint_trail.end());
      }
      if (result.fingerprint_misses > 0 &&
          record->corpus_samples.size() < kCorpusSampleCap) {
        record->corpus_samples.push_back(
            {result.trace, result.fingerprint_misses});
      }
    }
    trace.last_callback_end = NowNs();
  };
  systest::explore::ParallelTestingEngine engine(
      r.config, opt.traced ? TimedHarness(r.harness) : r.harness, options);
  const systest::explore::ParallelTestReport report = engine.Run();
  out.seconds = Seconds(NowNs() - start);
  out.cpu_seconds = CpuSeconds() - cpu_start;
  if (opt.traced) EndSpan(campaign);
  const TestReport& agg = report.aggregate;
  out.executions = agg.executions;
  out.steps = agg.total_steps;
  out.violations = violations.load();
  out.distinct_states = agg.distinct_states;
  out.pruned = agg.pruned_executions;
  out.hits = agg.fingerprint_hits;
  out.misses = agg.fingerprint_misses;
  out.saturated = agg.VisitedSetSaturated();
  out.visited = agg.visited;
  for (const auto& w : report.workers) {
    out.workers.emplace_back(w.executions, w.seconds);
  }
  out.corpus = corpus.Stats();
  return out;
}

// ---------------------------------------------------------------------------
// Passes, set-up probes and offline replays.

/// Set-up time of the workload: scenario lookup through the end of the
/// first execution (which builds and seals the recycled Runtime), summed
/// over the workload's targets. The first execution's length depends on its
/// schedule, so each probe takes its own seed stream (units from 2^15 on,
/// beyond any run's units) and the median over probes is seed-independent.
double SetupSeconds(const std::string& workload, std::uint64_t seed,
                    std::uint64_t probe) {
  const std::uint64_t offset = SeedOffset(seed, (1u << 15) + probe);
  const std::uint64_t start = NowNs();
  if (workload == "bughunt") {
    for (const Target& t : Hunts()) {
      const Resolved r = Resolve(t, offset, [](TestConfig& c) {
        c.strategy = "random";
        c.stateful = false;
        c.iterations = 1;
      });
      TestingEngine(r.config, r.harness).Run();
    }
  } else if (workload == "stateful_fixed") {
    for (const Target& t : StatefulControls()) {
      const Resolved r = Resolve(t, offset, [](TestConfig& c) {
        c.strategy = "random";
        c.stateful = true;
        c.max_visited = kMaxVisited;
        c.iterations = 1;
      });
      systest::obs::MetricsRegistry registry;
      systest::obs::CampaignMetrics metrics(registry);
      TestingEngine engine(r.config, r.harness);
      engine.SetObservability(&metrics, /*coverage=*/true);
      engine.Run();
    }
  } else {
    const int workers = GuidedWorkers();
    const Resolved r = Resolve(GuidedTarget(), offset, [&](TestConfig& c) {
      c.strategy = "mutate";
      c.stateful = true;
      c.corpus_mutation = true;
      c.max_visited = kMaxVisited;
      c.iterations = static_cast<std::uint64_t>(workers);
    });
    systest::corpus::TraceCorpus corpus;
    const systest::corpus::ScopedActiveCorpus active(&corpus);
    systest::explore::ParallelOptions options;
    options.threads = workers;
    options.corpus = &corpus;
    systest::explore::ParallelTestingEngine(r.config, r.harness, options).Run();
  }
  return Seconds(NowNs() - start);
}

struct ObsPairs {
  std::uint64_t pairs = 0;
  double on_seconds = 0;
  double off_seconds = 0;
};

/// Runs every stateful campaign of the first `units` units twice, with the
/// metrics plane on and off, alternating which side goes first so that a
/// drift in machine speed charges both sides alike. Scheduling is identical
/// on both sides by construction, so the time difference is obs overhead.
ObsPairs RunObsPairs(std::uint64_t seed, std::uint64_t units) {
  PassOptions on;
  PassOptions off;
  off.obs = false;
  ObsPairs out;
  for (std::uint64_t unit = 0; unit < units; ++unit) {
    for (const Target& t : StatefulControls()) {
      const bool on_first = out.pairs++ % 2 == 0;
      for (const bool obs : {on_first, !on_first}) {
        const CampaignResult c = RunStateful(t, SeedOffset(seed, unit),
                                             obs ? on : off, unit, nullptr);
        (obs ? out.on_seconds : out.off_seconds) += c.seconds;
      }
    }
  }
  return out;
}

/// Runs units until `seconds` have passed (at least one), or exactly
/// `fixed_units` when non-zero (the traced pass repeats the plain pass's).
PassResult RunPass(const std::string& workload, std::uint64_t seed,
                   double seconds, std::uint64_t fixed_units,
                   const PassOptions& opt) {
  PassResult pass;
  const std::uint64_t start = NowNs();
  std::size_t workload_span = 0;
  if (opt.traced) {
    workload_span = AddSpan({"workload", workload, "", start, 0, {}});
  }
  // Set-up probes come in bursts spread over the run, so their median does
  // not hinge on the machine's load at one moment. Their time is excluded
  // from the pass.
  std::uint64_t probe_ns = 0;
  auto probe = [&] {
    if (opt.setup_s == nullptr) return;
    const std::uint64_t probe_start = NowNs();
    for (int i = 0; i < kSetupProbes; ++i) {
      opt.setup_s->push_back(
          SetupSeconds(workload, seed, opt.setup_s->size()));
    }
    probe_ns += NowNs() - probe_start;
  };
  for (std::uint64_t unit = 0;; ++unit) {
    if (fixed_units > 0 ? unit >= fixed_units
                        : unit > 0 && Seconds(NowNs() - start) >= seconds) {
      break;
    }
    probe();
    const std::uint64_t offset = SeedOffset(seed, unit);
    std::vector<std::uint64_t>* resolve =
        unit == 0 ? &pass.resolve_ns : nullptr;
    if (workload == "bughunt") {
      auto& hunts = pass.hunts.emplace_back();
      for (const Target& t : Hunts()) {
        hunts.push_back(RunHunt(t, offset, opt, unit, resolve));
      }
    } else if (workload == "stateful_fixed") {
      auto& campaigns = pass.campaigns.emplace_back();
      for (const Target& t : StatefulControls()) {
        campaigns.push_back(RunStateful(t, offset, opt, unit, resolve));
      }
    } else {
      pass.campaigns.emplace_back().push_back(
          RunGuided(GuidedTarget(), offset, opt, unit, resolve));
    }
    ++pass.units;
  }
  probe();
  pass.seconds = Seconds(NowNs() - start - probe_ns);
  if (opt.traced) EndSpan(workload_span);
  return pass;
}

/// Replays a recorded fingerprint trail twice, each time into a fresh
/// visited set of the workload's shape. The first replay times blocks of
/// inserts and takes the plain insert cost from the blocks during which no
/// compaction ran; it reads no clock inside a block, so consecutive inserts
/// overlap as they do in a campaign. The second replay times every insert:
/// a compaction runs inside the insert that overflows a hot level, so in a
/// block during which k compactions ran, the k slowest inserts are them.
template <typename Set>
void ReplayTrail(Json& j, const std::string& id, const std::string& parent,
                 const std::vector<systest::Fingerprint>& trail) {
  constexpr std::size_t kBlock = 4'096;
  systest::TieredOptions options;
  options.max_entries = kMaxVisited;
  options.hot_entries = TestConfig{}.max_visited_hot;
  const std::size_t span =
      AddSpan({"fingerprint_replay", id, parent, NowNs(), 0, {}});

  double insert_ns = 0;
  std::uint64_t quiet_inserts = 0;
  {
    Set set(options);
    std::uint64_t compactions = 0;
    for (std::size_t i = 0; i < trail.size(); i += kBlock) {
      const std::size_t end = std::min(trail.size(), i + kBlock);
      const std::uint64_t t0 = NowNs();
      for (std::size_t k = i; k < end; ++k) set.Insert(trail[k]);
      const std::uint64_t ns = NowNs() - t0;
      const std::uint64_t now = set.Stats().compactions;
      if (now == compactions) {
        insert_ns += static_cast<double>(ns);
        quiet_inserts += end - i;
      }
      compactions = now;
    }
  }

  double compaction_ns = 0;
  std::uint64_t compactions = 0;
  {
    Set set(options);
    std::vector<std::uint64_t> block_ns;
    block_ns.reserve(kBlock);
    for (std::size_t i = 0; i < trail.size(); i += kBlock) {
      block_ns.clear();
      const std::size_t end = std::min(trail.size(), i + kBlock);
      for (std::size_t k = i; k < end; ++k) {
        const std::uint64_t t0 = NowNs();
        set.Insert(trail[k]);
        block_ns.push_back(NowNs() - t0);
      }
      const std::uint64_t now = set.Stats().compactions;
      const auto slow = static_cast<std::ptrdiff_t>(
          std::min<std::uint64_t>(now - compactions, block_ns.size()));
      compactions = now;
      std::nth_element(block_ns.begin(), block_ns.end() - slow,
                       block_ns.end());
      for (auto it = block_ns.end() - slow; it != block_ns.end(); ++it) {
        compaction_ns += static_cast<double>(*it);
      }
    }
  }
  EndSpan(span, {{"inserts", static_cast<double>(trail.size())},
                 {"quiet_inserts", static_cast<double>(quiet_inserts)},
                 {"insert_ns_total", insert_ns},
                 {"compactions", static_cast<double>(compactions)},
                 {"compaction_ns_total", compaction_ns}});
  j.Open('{');
  j.Key("id").Str(id);
  j.Key("inserts").Int(trail.size());
  j.Key("quiet_inserts").Int(quiet_inserts);
  j.Key("insert_ns_total").Num(insert_ns);
  j.Key("compactions").Int(compactions);
  j.Key("compaction_ns_total").Num(compaction_ns);
  j.Close('}');
}

void ReplayCorpus(Json& j, const std::string& id, const Recording& record) {
  systest::corpus::TraceCorpus corpus;
  const std::size_t span =
      AddSpan({"corpus_replay", id + "/corpus_replay", id, NowNs(), 0, {}});
  j.Key("corpus_add_ns").Open('[');
  for (const Recording::CorpusSample& s : record.corpus_samples) {
    const std::uint64_t t0 = NowNs();
    corpus.Add(s.trace, s.new_states, 0);
    j.Int(NowNs() - t0);
  }
  j.Close(']');
  EndSpan(span);
}

void WriteSpans(const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : g_spans) {
    Json line;
    line.Open('{');
    line.Key("span").Str(s.kind);
    line.Key("id").Str(s.id);
    line.Key("parent").Str(s.parent);
    line.Key("start").Int(s.start);
    line.Key("end").Int(s.end);
    for (const auto& [key, value] : s.attrs) line.Key(key).Num(value);
    line.Close('}');
    out << line.str() << '\n';
  }
  for (const auto& worker : g_worker_traces) {
    for (const ExecSpan& e : worker->spans) {
      const std::string& parent = g_spans[e.campaign].id;
      Json line;
      line.Open('{');
      line.Key("span").Str("exec");
      line.Key("id").Str(parent + "/w" + std::to_string(e.worker) + "/" +
                         std::to_string(e.iteration));
      line.Key("parent").Str(parent);
      line.Key("start").Int(e.start);
      line.Key("end").Int(e.end);
      line.Key("prepare_ns").Int(e.prepare_ns);
      line.Key("gap_ns").Int(e.gap_ns);
      line.Key("harness_ns").Int(e.harness_ns);
      line.Key("harness_calls").Int(e.harness_calls);
      line.Key("decisions").Int(e.decisions);
      line.Key("decision_ns").Int(e.decision_ns);
      line.Key("steps").Int(e.steps);
      line.Close('}');
      out << line.str() << '\n';
    }
  }
  out.close();
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool traced = false;
  std::string spans;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for flag");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--traced") {
      args.traced = true;
    } else if (flag == "--spans") {
      args.spans = value();
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (args.workload != "bughunt" && args.workload != "stateful_fixed" &&
      args.workload != "guided") {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  if (args.traced && args.spans.empty()) {
    throw std::invalid_argument("--traced needs --spans FILE");
  }
  return args;
}

int Main(const Args& args) {
  Json j;
  j.Open('{');
  j.Key("workload").Str(args.workload);
  j.Key("seed").Int(args.seed);
  j.Key("hw_conc").Int(std::thread::hardware_concurrency());
  j.Key("guided_workers").Int(static_cast<std::uint64_t>(GuidedWorkers()));

  std::vector<double> setup_s;
  PassOptions plain_options;
  plain_options.setup_s = &setup_s;
  const PassResult plain =
      RunPass(args.workload, args.seed, args.seconds, 0, plain_options);
  j.Key("setup_s").Open('[');
  for (const double s : setup_s) j.Num(s);
  j.Close(']');
  j.Key("plain");
  WritePass(j, plain);
  j.Key("peak_rss_kb").Int(PeakRssKb());

  if (args.traced) {
    if (args.workload == "stateful_fixed") {
      const ObsPairs pairs =
          RunObsPairs(args.seed, std::min(plain.units, kObsPairUnits));
      j.Key("obs_pairs").Open('{');
      j.Key("pairs").Int(pairs.pairs);
      j.Key("on_seconds").Num(pairs.on_seconds);
      j.Key("off_seconds").Num(pairs.off_seconds);
      j.Close('}');
    }
    RegisterTracedStrategies();
    Recording record;
    PassOptions traced;
    traced.traced = true;
    traced.record = args.workload == "bughunt" ? nullptr : &record;
    const PassResult traced_pass =
        RunPass(args.workload, args.seed, 0, plain.units, traced);
    j.Key("traced");
    WritePass(j, traced_pass);

    j.Key("offline").Open('{');
    j.Key("fingerprint").Open('[');
    for (const auto& [label, trail] : record.trails) {
      const std::string id =
          args.workload + "/" + label + "/fingerprint_replay";
      if (args.workload == "guided") {
        ReplayTrail<systest::explore::ShardedFingerprintSet>(
            j, id, args.workload, trail);
      } else {
        ReplayTrail<systest::TieredFingerprintSet>(j, id, args.workload,
                                                   trail);
      }
    }
    j.Close(']');
    ReplayCorpus(j, args.workload, record);
    j.Close('}');
    WriteSpans(args.spans);
  }
  j.Close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
