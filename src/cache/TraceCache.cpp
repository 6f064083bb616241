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
  Out.Trace = std::move(*T);
  Out.OpcodeVars.clear();
  for (const auto &[Name, Width] : E.OpcodeVars) {
    auto It = P.vars().find(Name);
    if (It != P.vars().end()) {
      Out.OpcodeVars.push_back(It->second);
      continue;
    }
    // Opcode variables are always declared inside the trace; tolerate a
    // missing one (e.g. a hand-written entry) with a fresh stand-in.
    Out.OpcodeVars.push_back(
        TB.freshVar(smt::Sort::bitvec(Width ? Width : 1), Name));
  }
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
  itl::SExprParser P(Text);
  auto Header = P.parse();
  if (!Header) {
    Err = "bad cache entry header: " + P.error();
    return false;
  }
  const std::vector<itl::SExpr> &L = Header->List;
  if (Header->isAtom() || L.size() != 5 ||
      L[0].Atom != "islaris-trace-cache" || L[1].Atom != "1") {
    Err = "unrecognized cache entry header/version";
    return false;
  }
  if (L[3].isAtom() || L[3].List.empty() ||
      L[3].List[0].Atom != "opcode-vars") {
    Err = "bad opcode-vars list";
    return false;
  }
  Out.OpcodeVars.clear();
  for (size_t I = 1; I < L[3].List.size(); ++I) {
    const itl::SExpr &V = L[3].List[I];
    if (V.isAtom() || V.List.size() != 2 || !V.List[0].isAtom() ||
        !V.List[1].isAtom()) {
      Err = "bad opcode-var entry";
      return false;
    }
    // Untrusted number: a checksum-valid but hand-written/fuzzed entry can
    // carry "abc", "-1" or 2^64-scale atoms here; degrade to a parse error
    // (-> miss + quarantine), never a throw or a silent wrap.
    unsigned Width = 0;
    if (!support::parseUnsigned(V.List[1].Atom, 1u << 16, Width)) {
      Err = "bad opcode-var width '" + V.List[1].Atom + "'";
      return false;
    }
    Out.OpcodeVars.emplace_back(itl::stripBars(V.List[0].Atom), Width);
  }
  if (L[4].isAtom() || L[4].List.size() != 5 ||
      L[4].List[0].Atom != "stats") {
    Err = "bad stats list";
    return false;
  }
  unsigned *StatFields[4] = {&Out.Stats.Paths, &Out.Stats.PrunedBranches,
                             &Out.Stats.SolverQueries, &Out.Stats.Events};
  for (size_t I = 0; I < 4; ++I)
    if (!support::parseUnsigned(L[4].List[I + 1].Atom, 0xFFFFFFFFu,
                                *StatFields[I])) {
      Err = "bad stats atom '" + L[4].List[I + 1].Atom + "'";
      return false;
    }

  // The remainder of the file is the trace text, kept verbatim so that a
  // disk round-trip is byte-identical with the in-memory entry.
  size_t Start = P.position();
  while (Start < Text.size() &&
         (Text[Start] == '\n' || Text[Start] == '\r' || Text[Start] == ' ' ||
          Text[Start] == '\t'))
    ++Start;
  size_t End = Text.size();
  while (End > Start && (Text[End - 1] == '\n' || Text[End - 1] == '\r'))
    --End;
  Out.TraceText = Text.substr(Start, End - Start);
  if (Out.TraceText.empty()) {
    Err = "cache entry has no trace";
    return false;
  }
  // Structural torn-write check: the trace text must be one balanced
  // S-expression.  A write cut short mid-entry (crash, full disk) leaves
  // dangling parens; catching it here lets lookup() treat the file as
  // corrupt (miss + self-repair) instead of handing decode() garbage.
  long Depth = 0;
  bool InBars = false;
  for (char Ch : Out.TraceText) {
    if (Ch == '|')
      InBars = !InBars;
    else if (!InBars && Ch == '(')
      ++Depth;
    else if (!InBars && Ch == ')' && --Depth < 0)
      break;
  }
  if (Depth != 0 || InBars) {
    Err = "truncated trace text (torn write?)";
    return false;
  }
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
