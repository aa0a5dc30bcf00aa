// SysTest coverage-guided exploration — TraceCorpus implementation.

#include "corpus/trace_corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace systest::corpus {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (i * 8)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

std::atomic<TraceCorpus*> g_active_corpus{nullptr};

}  // namespace

TraceCorpus* ActiveCorpus() noexcept {
  return g_active_corpus.load(std::memory_order_acquire);
}

void SetActiveCorpus(TraceCorpus* corpus) noexcept {
  g_active_corpus.store(corpus, std::memory_order_release);
}

TraceCorpus::TraceCorpus(std::size_t max_entries)
    : max_entries_(std::max<std::size_t>(max_entries, kShards)) {}

std::uint64_t TraceCorpus::HashOf(const Trace& trace) noexcept {
  std::uint64_t hash = kFnvOffset;
  for (const Decision& d : trace.Decisions()) {
    hash = FnvMix(hash, static_cast<std::uint64_t>(d.kind));
    hash = FnvMix(hash, d.value);
    hash = FnvMix(hash, d.bound);
  }
  return hash;
}

std::uint64_t TraceCorpus::Energy(std::uint64_t new_states, std::uint64_t heat,
                                  std::uint64_t spawned) noexcept {
  // Cap the base so a single saturating execution (vnext can miss tens of
  // thousands of fingerprints) cannot make the rest of the corpus invisible.
  constexpr std::uint64_t kBaseCap = 1u << 16;
  constexpr std::uint64_t kDecay = 8;  // half weight after 8 spawns
  const std::uint64_t base =
      std::min<std::uint64_t>(1 + new_states + 4 * heat, kBaseCap);
  return std::max<std::uint64_t>(base * kDecay / (kDecay + spawned), 1);
}

bool TraceCorpus::Add(const Trace& trace, std::uint64_t new_states,
                      std::uint64_t heat) {
  Entry entry;
  entry.trace = trace;
  entry.hash = HashOf(trace);
  entry.new_states = new_states;
  entry.heat = heat;
  return AddEntry(std::move(entry), /*loaded=*/false);
}

bool TraceCorpus::AddEntry(Entry entry, bool loaded) {
  Shard& shard = shards_[ShardOf(entry.hash)];
  const std::uint64_t new_states = entry.new_states;
  bool evict = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.hashes.contains(entry.hash)) {
      duplicates_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (count_.load(std::memory_order_relaxed) >= max_entries_) {
      // At the cap: replace this shard's lowest-energy entry, but only if
      // the newcomer carries strictly more energy — otherwise reject so a
      // full corpus of champions is not churned by marginal traces.
      if (shard.entries.empty()) return false;
      auto victim = std::min_element(
          shard.entries.begin(), shard.entries.end(),
          [](const Entry& a, const Entry& b) {
            return Energy(a.new_states, a.heat, a.spawned) <
                   Energy(b.new_states, b.heat, b.spawned);
          });
      if (Energy(entry.new_states, entry.heat, entry.spawned) <=
          Energy(victim->new_states, victim->heat, victim->spawned)) {
        return false;
      }
      shard.hashes.erase(victim->hash);
      total_new_states_.fetch_sub(victim->new_states,
                                  std::memory_order_relaxed);
      *victim = std::move(entry);
      shard.hashes.insert(victim->hash);
      evict = true;
    } else {
      shard.hashes.insert(entry.hash);
      shard.entries.push_back(std::move(entry));
      shard.count.store(static_cast<std::uint32_t>(shard.entries.size()),
                        std::memory_order_relaxed);
      count_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (evict) evicted_.fetch_add(1, std::memory_order_relaxed);
  added_.fetch_add(1, std::memory_order_relaxed);
  if (loaded) loaded_.fetch_add(1, std::memory_order_relaxed);
  total_new_states_.fetch_add(new_states, std::memory_order_relaxed);
  return true;
}

std::optional<Trace> TraceCorpus::Sample(std::uint64_t draw_shard,
                                         std::uint64_t draw_entry) {
  const std::size_t total = count_.load(std::memory_order_relaxed);
  if (total == 0) return std::nullopt;

  // Two-level pick: walk shards consuming `target` against their (relaxed)
  // entry counts so bigger shards are proportionally likelier, then wrap
  // around until one is actually non-empty — counts may be stale under
  // concurrent adds, so the walk is best-effort, never wrong.
  std::uint64_t target = draw_shard % total;
  std::size_t start = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::uint64_t c = shards_[i].count.load(std::memory_order_relaxed);
    if (target < c) {
      start = i;
      break;
    }
    target -= c;
  }
  for (std::size_t probe = 0; probe < kShards; ++probe) {
    Shard& shard = shards_[(start + probe) % kShards];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.entries.empty()) continue;
    std::uint64_t total_energy = 0;
    for (const Entry& e : shard.entries) {
      total_energy += Energy(e.new_states, e.heat, e.spawned);
    }
    std::uint64_t pick = draw_entry % total_energy;
    for (Entry& e : shard.entries) {
      const std::uint64_t energy = Energy(e.new_states, e.heat, e.spawned);
      if (pick < energy) {
        ++e.spawned;
        sampled_.fetch_add(1, std::memory_order_relaxed);
        return e.trace;
      }
      pick -= energy;
    }
  }
  return std::nullopt;
}

CorpusStats TraceCorpus::Stats() const {
  CorpusStats stats;
  stats.entries = count_.load(std::memory_order_relaxed);
  stats.added = added_.load(std::memory_order_relaxed);
  stats.duplicates = duplicates_.load(std::memory_order_relaxed);
  stats.evicted = evicted_.load(std::memory_order_relaxed);
  stats.sampled = sampled_.load(std::memory_order_relaxed);
  stats.loaded = loaded_.load(std::memory_order_relaxed);
  stats.total_new_states = total_new_states_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<CorpusEntrySnapshot> TraceCorpus::Snapshot() const {
  std::vector<CorpusEntrySnapshot> out;
  out.reserve(count_.load(std::memory_order_relaxed));
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Entry& e : shard.entries) {
      out.push_back({e.hash, e.new_states, e.heat, e.spawned,
                     Energy(e.new_states, e.heat, e.spawned),
                     e.trace.Size()});
    }
  }
  return out;
}

namespace {

std::string TraceFileName(std::uint64_t hash) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%016llx.trace",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace

std::size_t TraceCorpus::SaveDir(const std::string& dir) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("corpus: cannot create directory " + dir + ": " +
                             ec.message());
  }

  std::ostringstream index_body;
  std::size_t written = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Entry& e : shard.entries) {
      const std::string file = TraceFileName(e.hash);
      e.trace.SaveFile((fs::path(dir) / file).string());
      index_body << std::hex << e.hash << std::dec << ' ' << e.new_states
                 << ' ' << e.heat << ' ' << e.spawned << ' ' << file << '\n';
      ++written;
    }
  }

  // The index is written beside the old one and renamed over it, so a save
  // killed midway leaves the previous index intact, never a truncated one.
  const fs::path index_path = fs::path(dir) / "corpus.index";
  const fs::path tmp_path = fs::path(dir) / "corpus.index.tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("corpus: cannot write " + tmp_path.string());
    }
    out << "systest-corpus v1 " << written << '\n' << index_body.str();
    if (!out.flush()) {
      throw std::runtime_error("corpus: write failed for " +
                               tmp_path.string());
    }
  }
  fs::rename(tmp_path, index_path, ec);
  if (ec) {
    throw std::runtime_error("corpus: cannot replace " + index_path.string() +
                             ": " + ec.message());
  }
  return written;
}

std::size_t TraceCorpus::LoadDir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::ifstream in((fs::path(dir) / "corpus.index").string());
  if (!in) return 0;  // cold start: no corpus yet at this path

  std::string magic, version;
  std::size_t declared = 0;
  if (!(in >> magic >> version >> declared) || magic != "systest-corpus" ||
      version != "v1") {
    throw std::invalid_argument("corpus: malformed index in " + dir);
  }

  std::size_t restored = 0;
  for (std::size_t i = 0; i < declared; ++i) {
    std::uint64_t hash = 0;
    Entry entry;
    std::string file;
    if (!(in >> std::hex >> hash >> std::dec >> entry.new_states >>
          entry.heat >> entry.spawned >> file)) {
      throw std::invalid_argument("corpus: truncated index in " + dir);
    }
    try {
      entry.trace = Trace::LoadFile((fs::path(dir) / file).string());
    } catch (const std::exception&) {
      continue;  // skip unreadable entries: a partial corpus beats none
    }
    // Trust the recomputed hash over the stored one so a hand-edited trace
    // file still dedups correctly against live additions.
    entry.hash = HashOf(entry.trace);
    if (AddEntry(std::move(entry), /*loaded=*/true)) ++restored;
  }
  return restored;
}

}  // namespace systest::corpus
