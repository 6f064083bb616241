//===- cache/TraceCache.cpp - Content-addressed ITL trace store ---------------===//

#include "cache/TraceCache.h"

#include "itl/Parser.h"
#include "smt/TermBuilder.h"
#include "support/Parse.h"

#include <cstdlib>

using namespace islaris;
using namespace islaris::cache;

std::string islaris::cache::resolveCacheDir() {
  if (const char *Env = std::getenv("ISLARIS_CACHE_DIR"))
    if (*Env)
      return Env;
  return "build/.trace-cache";
}

TraceCache::TraceCache(TraceCacheConfig C)
    : Cfg(std::move(C)),
      Files(Cfg.Dir.empty() ? resolveCacheDir() : Cfg.Dir, TraceEntryExt) {
  if (Cfg.Persist && Cfg.ScrubOnOpen)
    Files.scrubIfUnclean();
}

//===----------------------------------------------------------------------===//
// Serialization.
//===----------------------------------------------------------------------===//

CacheEntry TraceCache::encode(const isla::ExecResult &R) {
  assert(R.Ok && "only successful executions are cached");
  CacheEntry E;
  E.TraceText = R.Trace.toString();
  for (const smt::Term *V : R.OpcodeVars)
    E.OpcodeVars.emplace_back(V->varName(), V->width());
  E.Stats = R.Stats;
  return E;
}

bool TraceCache::decode(const CacheEntry &E, smt::TermBuilder &TB,
                        isla::ExecResult &Out, std::string &Err) {
  itl::TraceParser P(TB);
  auto T = P.parseTrace(E.TraceText);
  if (!T) {
    Err = "cached trace does not re-parse (ITL adequacy bug): " + P.error();
    return false;
  }
  Out.OpcodeVars.clear();
  for (const auto &[Name, Width] : E.OpcodeVars) {
    // The executor declares opcode variables first, at the top level
    // (Executor::emitPreamble).
    const smt::Term *V = P.var(Name);
    if (!V || !V->sort().isBitVec() || V->width() != Width) {
      Err = "cache entry's opcode variable " + Name + " (width " +
            std::to_string(Width) + ") is not declared at the trace's top level";
      return false;
    }
    Out.OpcodeVars.push_back(V);
  }
  Out.Trace = std::move(*T);
  Out.Stats = E.Stats;
  Out.Error.clear();
  Out.Ok = true;
  return true;
}

std::string TraceCache::serializeEntry(const Fingerprint &K,
                                       const CacheEntry &E) {
  std::string Out;
  appendEntry(Out, K, E);
  return Out;
}

void TraceCache::appendEntry(std::string &Out, const Fingerprint &K,
                             const CacheEntry &E) {
  Out.reserve(Out.size() + E.TraceText.size() + 128);
  Out.append("(islaris-trace-cache 1 ").append(K.toHex());
  Out.append(" (opcode-vars");
  for (const auto &[Name, Width] : E.OpcodeVars)
    Out.append(" (|").append(Name).append("| ").append(std::to_string(Width))
        .append(")");
  Out.append(") (stats ").append(std::to_string(E.Stats.Paths)).append(" ");
  Out.append(std::to_string(E.Stats.PrunedBranches)).append(" ");
  Out.append(std::to_string(E.Stats.SolverQueries)).append(" ");
  Out.append(std::to_string(E.Stats.Events)).append("))\n");
  Out.append(E.TraceText).append("\n");
}

bool TraceCache::parseEntry(const std::string &Text, CacheEntry &Out,
                            std::string &Err) {
  // The header is matched literally, byte for byte as appendEntry writes
  // it.  Torn writes are the envelope checksum's to catch, and a trace that
  // does not parse is decode()'s.
  support::Cursor C{Text};
  Fingerprint Key; // not checked: the entry file's envelope names the key
  if (!C.lit("(islaris-trace-cache 1 ") ||
      !Fingerprint::fromHex(C.take(32), Key) || !C.lit(" (opcode-vars")) {
    Err = "unrecognized cache entry header/version";
    return false;
  }
  // Untrusted numbers: a checksum-valid but hand-written/fuzzed entry can
  // carry "abc", "-1" or 2^64-scale atoms; each is a parse error (-> miss +
  // quarantine), never a throw or a silent wrap.
  Out.OpcodeVars.clear();
  while (C.lit(" (|")) {
    std::string_view Name, WidthText;
    unsigned Width = 0;
    if (!C.until('|', Name) || !C.lit("| ") || !C.until(')', WidthText) ||
        !C.lit(")")) {
      Err = "bad opcode-var entry";
      return false;
    }
    if (!support::parseUnsigned(WidthText, 1u << 16, Width)) {
      Err = "bad opcode-var width '" + std::string(WidthText) + "'";
      return false;
    }
    Out.OpcodeVars.emplace_back(std::string(Name), Width);
  }
  unsigned *StatFields[4] = {&Out.Stats.Paths, &Out.Stats.PrunedBranches,
                             &Out.Stats.SolverQueries, &Out.Stats.Events};
  bool Ok = C.lit(") (stats");
  for (size_t I = 0; Ok && I < 4; ++I) {
    std::string_view Field;
    Ok = C.lit(" ") && C.until(I < 3 ? ' ' : ')', Field);
    if (Ok && !support::parseUnsigned(Field, 0xFFFFFFFFu, *StatFields[I])) {
      Err = "bad stats atom '" + std::string(Field) + "'";
      return false;
    }
  }
  if (!Ok || !C.lit("))\n")) {
    Err = "bad stats list";
    return false;
  }
  // The rest is the trace text and a newline, kept verbatim so that a disk
  // round-trip is byte-identical with the in-memory entry.
  std::string_view Rest = C.S.substr(C.P);
  if (Rest.size() < 2 || Rest.back() != '\n') {
    Err = "cache entry has no trace";
    return false;
  }
  Out.TraceText = Rest.substr(0, Rest.size() - 1);
  return true;
}

//===----------------------------------------------------------------------===//
// In-memory LRU map.
//===----------------------------------------------------------------------===//

std::shared_ptr<const CacheEntry> TraceCache::lookup(const Fingerprint &K) {
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Map.find(K);
    if (It != Map.end()) {
      Lru.splice(Lru.begin(), Lru, It->second.LruIt);
      ++St.Hits;
      return It->second.Entry;
    }
  }
  std::string Payload, Err;
  CacheEntry E;
  if (Cfg.Persist && Files.read(K, Payload)) {
    if (parseEntry(Payload, E, Err)) {
      auto Shared = std::make_shared<const CacheEntry>(std::move(E));
      std::lock_guard<std::mutex> L(Mu);
      ++St.DiskHits;
      if (!Map.count(K))
        addLocked(K, Shared); // promote into memory
      return Shared;
    }
    Files.discard(K, Err);
  }
  std::lock_guard<std::mutex> L(Mu);
  ++St.Misses;
  return nullptr;
}

void TraceCache::insert(const Fingerprint &K, CacheEntry E) {
  auto Shared = std::make_shared<const CacheEntry>(std::move(E));
  bool Fresh = false;
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Map.find(K);
    if (It != Map.end()) {
      // Entries are immutable by content-addressing; refresh recency only.
      Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    } else {
      addLocked(K, Shared);
      ++St.Insertions;
      Fresh = true;
    }
  }
  if (Fresh && Cfg.Persist)
    Files.publish(K, serializeEntry(K, *Shared));
}

void TraceCache::addLocked(const Fingerprint &K,
                           std::shared_ptr<const CacheEntry> E) {
  Lru.push_front(K);
  Map.emplace(K, Slot{std::move(E), Lru.begin()});
  while (Map.size() > Cfg.MaxEntries) {
    Map.erase(Lru.back());
    Lru.pop_back();
    ++St.Evictions;
  }
}

void TraceCache::discard(const Fingerprint &K, const std::string &Why) {
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Map.find(K);
    if (It != Map.end()) {
      Lru.erase(It->second.LruIt);
      Map.erase(It);
    }
  }
  if (Cfg.Persist && !Files.disabled())
    Files.discard(K, Why);
}

void TraceCache::clearMemory() {
  std::lock_guard<std::mutex> L(Mu);
  Map.clear();
  Lru.clear();
}

size_t TraceCache::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Map.size();
}

CacheStats TraceCache::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  CacheStats S = St;
  Files.fillStats(S); // lock order: the store's, then the files'
  return S;
}

//===----------------------------------------------------------------------===//
// Ambient cache.
//===----------------------------------------------------------------------===//

static TraceCache *AmbientCache = nullptr;

TraceCache *islaris::cache::ambientTraceCache() { return AmbientCache; }
void islaris::cache::setAmbientTraceCache(TraceCache *C) {
  AmbientCache = C;
}
