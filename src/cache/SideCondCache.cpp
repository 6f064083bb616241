//===- cache/SideCondCache.cpp - Persistent side-condition store --------------===//

#include "cache/SideCondCache.h"

#include "cache/TraceCache.h"  // resolveCacheDir
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

//===----------------------------------------------------------------------===//
// Serialization.
//===----------------------------------------------------------------------===//

std::string SideCondStore::serializeBundle(const Fingerprint &K,
                                           const Answers &A) {
  std::ostringstream OS;
  OS << "(islaris-sidecond-bundle 1 " << K.toHex() << ")\n";
  for (const auto &[GK, R] : A) {
    OS << "(answer " << GK.toHex() << (R.Sat ? " sat" : " unsat")
       << " (model";
    for (const auto &[Name, Width, Bits] : R.Model)
      OS << " (|" << Name << "| " << Width << " " << Bits.toString() << ")";
    OS << "))\n";
  }
  return OS.str();
}

namespace {
using support::Cursor;

/// One "(answer <key> sat|unsat (model ...))" line of a bundle.
bool parseAnswer(Cursor &C, Fingerprint &Key,
                 smt::SolverCache::CachedResult &Out, std::string &Err) {
  if (!C.lit("(answer ") || !Fingerprint::fromHex(C.take(32), Key)) {
    Err = "bad answer clause";
    return false;
  }
  if (C.lit(" sat")) {
    Out.Sat = true;
  } else if (C.lit(" unsat")) {
    Out.Sat = false;
  } else {
    Err = "bad answer verdict";
    return false;
  }
  if (!C.lit(" (model")) {
    Err = "bad model clause";
    return false;
  }
  Out.Model.clear();
  while (C.lit(" (|")) {
    std::string_view Name, WidthText, BitsText;
    if (!C.until('|', Name) || !C.lit("| ") || !C.until(' ', WidthText) ||
        !C.lit(" ") || !C.until(')', BitsText) || !C.lit(")")) {
      Err = "bad model binding";
      return false;
    }
    BitVec Bits;
    if (!BitVec::fromString(BitsText, Bits)) {
      Err = "bad model value";
      return false;
    }
    // Untrusted number: reject non-numeric/negative/oversized atoms with a
    // parse error (-> miss + quarantine) instead of throwing or wrapping.
    unsigned Width = 0;
    if (!support::parseUnsigned(WidthText, 1u << 16, Width)) {
      Err = "bad model binding width '" + std::string(WidthText) + "'";
      return false;
    }
    // A declared width 0 marks a boolean (stored as one bit); otherwise the
    // value must have exactly the declared width.
    if (Width == 0 ? Bits.width() != 1 : Bits.width() != Width) {
      Err = "model value width mismatch";
      return false;
    }
    Out.Model.emplace_back(std::string(Name), Width, std::move(Bits));
  }
  if (!C.lit("))\n")) {
    Err = "bad answer clause";
    return false;
  }
  return true;
}
} // namespace

bool SideCondStore::parseBundle(const std::string &Text, Answers &Out,
                                std::string &Err) {
  Cursor C{Text};
  Fingerprint FileKey;
  if (!C.lit("(islaris-sidecond-bundle 1 ") ||
      !Fingerprint::fromHex(C.take(32), FileKey) || !C.lit(")\n")) {
    Err = "unrecognized side-condition bundle header/version";
    return false;
  }
  Out.clear();
  while (!C.atEnd()) {
    Fingerprint GK;
    CachedResult R;
    if (!parseAnswer(C, GK, R, Err))
      return false;
    Out.insert_or_assign(GK, std::move(R));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Bundles.
//===----------------------------------------------------------------------===//

/// The answers one proof engine used.  Persistent stores read the bundle
/// file at the first lookup and republish it from publish() when some
/// lookup was not served by the bundle as read; in-memory stores only
/// forward to the shared map.
class SideCondStore::Bundle final : public smt::SolverCache::Bundle {
public:
  Bundle(SideCondStore &S, const Fingerprint &Key) : S(S), Key(Key) {}

  bool lookup(const Fingerprint &GK, const std::vector<const smt::Term *> &,
              const Install &I) override {
    bool Persist = S.Cfg.Persist;
    if (Persist && !Loaded) {
      Loaded = true;
      S.load(Key, Read);
    }
    CachedResult R;
    if (!S.serve(GK, Read, I, R)) {
      Dirty |= Persist;
      return false;
    }
    if (Persist)
      use(GK, std::move(R));
    return true;
  }

  void store(const Fingerprint &GK, const CachedResult &R) override {
    S.insert(GK, R);
    if (S.Cfg.Persist)
      use(GK, R);
  }

  void publish() override {
    if (!Dirty)
      return;
    Dirty = false;
    // Replace, not first-writer-wins: the answers inside are content-keyed,
    // so whichever writer lands last leaves a bundle that can only hit or
    // miss, and a stale bundle must be overwritten to heal.
    if (S.Files.replace(Key, serializeBundle(Key, Used)))
      Read = Used;
  }

private:
  /// Records that the proof used \p R for \p GK.
  void use(const Fingerprint &GK, CachedResult R) {
    auto It = Read.find(GK);
    if (It == Read.end() || !(It->second == R))
      Dirty = true;
    Used.insert_or_assign(GK, std::move(R));
  }

  SideCondStore &S;
  Fingerprint Key;
  bool Loaded = false;
  bool Dirty = false; ///< Some lookup was not served by Read.
  Answers Read;       ///< The bundle file as last read or written.
  Answers Used;       ///< Every answer this proof search used.
};

std::unique_ptr<smt::SolverCache::Bundle>
SideCondStore::openBundle(const Fingerprint &Key) {
  return std::make_unique<Bundle>(*this, Key);
}

//===----------------------------------------------------------------------===//
// The shared in-memory map.
//===----------------------------------------------------------------------===//

void SideCondStore::load(const Fingerprint &K, Answers &Out) {
  std::string Payload, Err;
  if (!Files.read(K, Payload))
    return;
  if (!parseBundle(Payload, Out, Err)) {
    Out.clear();
    Files.discard(K, Err);
    return;
  }
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &[GK, R] : Out)
    if (Map.size() < Cfg.MaxEntries)
      Map.try_emplace(GK, Slot{R, true});
}

bool SideCondStore::serve(const Fingerprint &Key, const Answers &Loaded,
                          const Install &I, CachedResult &Served) {
  bool Found = false;
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      Served = It->second.R;
      Found = true;
    }
  }
  if (!Found) {
    // A bundle answer the memory bound kept out of the map.
    auto It = Loaded.find(Key);
    if (It != Loaded.end()) {
      Served = It->second;
      Found = true;
    }
  }
  // Installing evaluates the goals: done outside the lock.
  bool Accepted = Found && I(Served);
  std::lock_guard<std::mutex> L(Mu);
  auto It = Map.find(Key);
  bool InMap = It != Map.end() && It->second.R == Served;
  if (!Accepted) {
    if (Found) {
      ++St.Rejected;
      if (InMap)
        Map.erase(It); // a wrong answer: let the solved one replace it
    }
    ++St.Misses;
    return false;
  }
  if (!InMap || It->second.OffDisk) {
    ++St.DiskHits;
    if (InMap)
      It->second.OffDisk = false;
  } else {
    ++St.Hits;
  }
  return true;
}

void SideCondStore::insert(const Fingerprint &Key, const CachedResult &R) {
  std::lock_guard<std::mutex> L(Mu);
  if (Map.size() < Cfg.MaxEntries && Map.try_emplace(Key, Slot{R}).second)
    ++St.Insertions;
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
