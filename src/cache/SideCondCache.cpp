//===- cache/SideCondCache.cpp - Persistent side-condition store --------------===//

#include "cache/SideCondCache.h"

#include "cache/TraceCache.h"  // resolveCacheDir
#include "itl/Parser.h"
#include "support/Parse.h"

#include <sstream>

using namespace islaris;
using namespace islaris::cache;

SideCondStore::SideCondStore(SideCondConfig C)
    : Cfg(std::move(C)),
      Files(Cfg.Dir.empty() ? resolveCacheDir() + "/sidecond" : Cfg.Dir,
            SideCondEntryExt) {
  if (Cfg.Persist && Cfg.ScrubOnOpen)
    Files.scrubIfUnclean();
}

Fingerprint SideCondStore::key(const std::string &Closure) const {
  Fingerprinter FP;
  FP.str("islaris-sidecond");
  FP.str(Closure);
  // Two fixed zero words keep keys byte-identical to stores persisted while
  // this slot held a per-store salt (SideCondTest.KeyIsPinned).
  FP.u64(0);
  FP.u64(0);
  return FP.digest();
}

//===----------------------------------------------------------------------===//
// Serialization.
//===----------------------------------------------------------------------===//

std::string SideCondStore::serializeEntry(const Fingerprint &K,
                                          const CachedResult &R) {
  std::ostringstream OS;
  OS << "(islaris-sidecond-cache 1 " << K.toHex() << " (result "
     << (R.Sat ? "sat" : "unsat") << ") (model";
  for (const auto &[Name, Width, Bits] : R.Model)
    OS << " (|" << Name << "| " << Width << " " << Bits.toString() << ")";
  OS << "))\n";
  return OS.str();
}

bool SideCondStore::parseEntry(const std::string &Text, const Fingerprint &K,
                               CachedResult &Out, std::string &Err) {
  itl::SExprParser P(Text);
  auto Header = P.parse();
  if (!Header) {
    Err = "bad side-condition entry: " + P.error();
    return false;
  }
  const std::vector<itl::SExpr> &L = Header->List;
  if (Header->isAtom() || L.size() != 5 ||
      L[0].Atom != "islaris-sidecond-cache" || L[1].Atom != "1") {
    Err = "unrecognized side-condition entry header/version";
    return false;
  }
  Fingerprint FileKey;
  if (!Fingerprint::fromHex(L[2].Atom, FileKey) || FileKey != K) {
    Err = "side-condition entry key mismatch";
    return false;
  }
  if (L[3].isAtom() || L[3].List.size() != 2 ||
      L[3].List[0].Atom != "result" ||
      (L[3].List[1].Atom != "sat" && L[3].List[1].Atom != "unsat")) {
    Err = "bad result clause";
    return false;
  }
  Out.Sat = L[3].List[1].Atom == "sat";
  if (L[4].isAtom() || L[4].List.empty() || L[4].List[0].Atom != "model") {
    Err = "bad model clause";
    return false;
  }
  Out.Model.clear();
  for (size_t I = 1; I < L[4].List.size(); ++I) {
    const itl::SExpr &V = L[4].List[I];
    if (V.isAtom() || V.List.size() != 3 || !V.List[0].isAtom() ||
        !V.List[1].isAtom() || !V.List[2].isAtom()) {
      Err = "bad model binding";
      return false;
    }
    BitVec Bits;
    if (!BitVec::fromString(V.List[2].Atom, Bits)) {
      Err = "bad model value";
      return false;
    }
    // Untrusted number: reject non-numeric/negative/oversized atoms with a
    // parse error (-> miss + quarantine) instead of throwing or wrapping.
    unsigned Width = 0;
    if (!support::parseUnsigned(V.List[1].Atom, 1u << 16, Width)) {
      Err = "bad model binding width '" + V.List[1].Atom + "'";
      return false;
    }
    // A declared width 0 marks a boolean (stored as one bit); otherwise the
    // value must have exactly the declared width.
    if (Width == 0 ? Bits.width() != 1 : Bits.width() != Width) {
      Err = "model value width mismatch";
      return false;
    }
    Out.Model.emplace_back(itl::stripBars(V.List[0].Atom), Width,
                           std::move(Bits));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Store interface.
//===----------------------------------------------------------------------===//

std::optional<smt::SolverCache::CachedResult>
SideCondStore::lookup(const std::string &Closure) {
  Fingerprint K = key(Closure);
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Map.find(K);
    if (It != Map.end()) {
      ++St.Hits;
      return It->second;
    }
  }
  std::string Payload, Err;
  CachedResult R;
  if (Cfg.Persist && Files.read(K, Payload)) {
    if (parseEntry(Payload, K, R, Err)) {
      std::lock_guard<std::mutex> L(Mu);
      ++St.DiskHits;
      if (Map.size() < Cfg.MaxEntries)
        Map.emplace(K, R); // promote into memory
      return R;
    }
    Files.discard(K, Err);
  }
  std::lock_guard<std::mutex> L(Mu);
  ++St.Misses;
  return std::nullopt;
}

void SideCondStore::store(const std::string &Closure,
                          const CachedResult &R) {
  Fingerprint K = key(Closure);
  bool New = false;
  {
    std::lock_guard<std::mutex> L(Mu);
    if (Map.size() < Cfg.MaxEntries || Map.count(K)) {
      New = Map.emplace(K, R).second;
      if (New)
        ++St.Insertions;
    } else {
      New = true; // over the memory bound; disk still gets the entry
    }
  }
  if (New && Cfg.Persist)
    Files.publish(K, serializeEntry(K, R));
}

void SideCondStore::clearMemory() {
  std::lock_guard<std::mutex> L(Mu);
  Map.clear();
}

size_t SideCondStore::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Map.size();
}

SideCondStats SideCondStore::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  SideCondStats S = St;
  Files.fillStats(S); // lock order: the store's, then the files'
  return S;
}

//===----------------------------------------------------------------------===//
// Ambient store.
//===----------------------------------------------------------------------===//

static SideCondStore *AmbientSideCond = nullptr;

SideCondStore *islaris::cache::ambientSideCondCache() {
  return AmbientSideCond;
}

void islaris::cache::setAmbientSideCondCache(SideCondStore *C) {
  AmbientSideCond = C;
}
