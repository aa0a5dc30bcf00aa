// SysTest coverage-guided exploration (README "Coverage-guided exploration").
//
// TraceCorpus: a deduplicated, energy-weighted store of "interesting" traces
// — executions whose fingerprint-miss count (new program states, PR 4) or
// coverage delta (newly visited heatmap cells, PR 6) was nonzero. The corpus
// closes the feedback loop fuzzer-style: engines feed every newly-interesting
// trace back in, and the MutationStrategy ("mutate") samples entries
// energy-weighted, replays a decision prefix and diverges with one mutator.
//
// Concurrency mirrors explore/sharded_fingerprint_set.h: the trace hash picks
// one of 16 independently locked shards, so parallel workers adding and
// sampling only contend when they land on the same shard at the same instant.
// Sampling is a two-level approximation — shard chosen proportional to entry
// counts (relaxed atomics), entry chosen energy-weighted under that shard's
// lock — which keeps the sample path off any global lock.
//
// Persistence (`--corpus-dir`): one trace file per entry in the existing
// durable trace format (v1/v2/v3 picked per trace by Trace::Serialize) plus a
// "corpus.index" metadata line per entry, so multi-hour campaigns resume with
// the corpus — and the energy bookkeeping — they left off with.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/trace.h"

namespace systest::corpus {

/// Aggregate corpus counters, uniform across serial and parallel runs
/// (reported by HumanReporter/JsonReporter when a session arms the corpus).
struct CorpusStats {
  std::uint64_t entries = 0;           ///< traces currently stored
  std::uint64_t added = 0;             ///< Add() calls that stored a new trace
  std::uint64_t duplicates = 0;        ///< Add() calls rejected as duplicates
  std::uint64_t evicted = 0;           ///< low-energy entries replaced at cap
  std::uint64_t sampled = 0;           ///< Sample() calls that returned a trace
  std::uint64_t loaded = 0;            ///< entries restored by LoadDir
  std::uint64_t total_new_states = 0;  ///< sum of per-entry discovery counts
};

/// One stored entry's energy inputs (tests and stats tooling; the trace
/// itself is not copied out).
struct CorpusEntrySnapshot {
  std::uint64_t hash = 0;
  std::uint64_t new_states = 0;  ///< fingerprint misses the execution scored
  std::uint64_t heat = 0;        ///< heatmap cells it visited first
  std::uint64_t spawned = 0;     ///< times it has been sampled for mutation
  std::uint64_t energy = 0;      ///< current effective sampling weight
  std::size_t decisions = 0;     ///< trace length
};

/// Thread-safe, capped, energy-weighted trace store. See file comment.
class TraceCorpus {
 public:
  static constexpr std::size_t kDefaultMaxEntries = 1024;

  explicit TraceCorpus(std::size_t max_entries = kDefaultMaxEntries);

  /// FNV-1a over the decision list — the dedup identity of a trace.
  [[nodiscard]] static std::uint64_t HashOf(const Trace& trace) noexcept;

  /// Effective sampling weight: discovery-proportional base
  /// (1 + new_states + 4*heat, so traces that reached UNDER-VISITED heatmap
  /// states outweigh ones that merely found new fingerprints) with harmonic
  /// decay in `spawned` — an entry that has seeded many mutations loses
  /// weight, so stale corpus champions stop dominating the sample stream.
  [[nodiscard]] static std::uint64_t Energy(std::uint64_t new_states,
                                           std::uint64_t heat,
                                           std::uint64_t spawned) noexcept;

  /// Stores a copy of `trace` keyed by HashOf. Returns false for duplicates
  /// and for traces that lose the eviction fight at the cap (the target
  /// shard's lowest-energy entry is replaced only when the newcomer's energy
  /// is strictly higher). `new_states`/`heat` are the execution's discovery
  /// counts — callers only feed traces where at least one is nonzero.
  bool Add(const Trace& trace, std::uint64_t new_states, std::uint64_t heat);

  /// Energy-weighted sample: returns a copy of a stored trace and bumps its
  /// spawned count (decay). `draw_shard`/`draw_entry` are caller-supplied
  /// random words so determinism stays in the caller's seed stream. Empty
  /// corpus returns nullopt.
  [[nodiscard]] std::optional<Trace> Sample(std::uint64_t draw_shard,
                                            std::uint64_t draw_entry);

  [[nodiscard]] std::size_t Size() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] CorpusStats Stats() const;

  /// Per-entry view (unordered), for tests and stats tooling.
  [[nodiscard]] std::vector<CorpusEntrySnapshot> Snapshot() const;

  /// Persists every entry under `dir` (created if missing): one
  /// "t<hash>.trace" file per entry plus a "corpus.index" metadata file
  /// ("systest-corpus v1 <n>" header, then one "<hash> <new_states> <heat>
  /// <spawned> <file>" line per entry). The index is written to
  /// "corpus.index.tmp" and renamed over the old one, so a save killed
  /// midway leaves the previous corpus loadable. Returns entries written;
  /// throws std::runtime_error on I/O failure.
  std::size_t SaveDir(const std::string& dir) const;

  /// Loads a SaveDir directory, restoring energy bookkeeping. Duplicates of
  /// already-stored traces are skipped; unreadable trace files are skipped
  /// (a partial corpus is better than none). A missing directory or index is
  /// not an error — returns 0, so first runs with --corpus-dir start cold.
  /// Returns entries restored.
  std::size_t LoadDir(const std::string& dir);

 private:
  struct Entry {
    Trace trace;
    std::uint64_t hash = 0;
    std::uint64_t new_states = 0;
    std::uint64_t heat = 0;
    std::uint64_t spawned = 0;
  };

  static constexpr std::size_t kShards = 16;

  static std::size_t ShardOf(std::uint64_t hash) noexcept {
    return static_cast<std::size_t>(hash & (kShards - 1));
  }

  struct alignas(64) Shard {  // own cache line: no false sharing across locks
    mutable std::mutex mutex;
    std::vector<Entry> entries;
    std::unordered_set<std::uint64_t> hashes;
    std::atomic<std::uint32_t> count{0};  ///< entries.size(), lock-free read
  };

  bool AddEntry(Entry entry, bool loaded);

  std::size_t max_entries_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> added_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> sampled_{0};
  std::atomic<std::uint64_t> loaded_{0};
  std::atomic<std::uint64_t> total_new_states_{0};
  Shard shards_[kShards];
};

/// Process-global active-corpus handle. StrategyRegistry factories receive
/// only (seed, budget) — the fixed registry signature every strategy shares —
/// so the "mutate" factory reaches the session's corpus through this handle.
/// TestSession installs its corpus for the duration of Run() via
/// ScopedActiveCorpus; a null active corpus makes "mutate" degrade to pure
/// random search.
[[nodiscard]] TraceCorpus* ActiveCorpus() noexcept;
void SetActiveCorpus(TraceCorpus* corpus) noexcept;

/// RAII installer: sets the active corpus, restores the previous one on
/// destruction (sessions nest correctly in tests).
class ScopedActiveCorpus {
 public:
  explicit ScopedActiveCorpus(TraceCorpus* corpus)
      : previous_(ActiveCorpus()) {
    SetActiveCorpus(corpus);
  }
  ~ScopedActiveCorpus() { SetActiveCorpus(previous_); }
  ScopedActiveCorpus(const ScopedActiveCorpus&) = delete;
  ScopedActiveCorpus& operator=(const ScopedActiveCorpus&) = delete;

 private:
  TraceCorpus* previous_;
};

}  // namespace systest::corpus
