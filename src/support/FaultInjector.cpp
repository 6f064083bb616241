//===- support/FaultInjector.cpp - Deterministic fault injection --------------===//

#include "support/FaultInjector.h"
#include "support/Guard.h"

#include <cstdlib>
#include <cstring>

using namespace islaris::support;

const char *islaris::support::faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::CacheRead:
    return "cache-read";
  case FaultSite::CacheWrite:
    return "cache-write";
  case FaultSite::CacheRename:
    return "cache-rename";
  case FaultSite::CacheTornWrite:
    return "cache-torn-write";
  case FaultSite::SolverUnknown:
    return "solver-unknown";
  case FaultSite::ExecStep:
    return "exec-step";
  case FaultSite::ExecThrow:
    return "exec-throw";
  case FaultSite::CrashPublish:
    return "crash-publish";
  case FaultSite::CrashJournal:
    return "crash-journal";
  case FaultSite::DiskFull:
    return "disk-full";
  case FaultSite::SolverModel:
    return "solver-model";
  }
  return "unknown";
}

FaultInjector::FaultInjector(uint64_t Seed) : Seed(Seed) {}

void FaultInjector::setRate(FaultSite S, double P) {
  std::lock_guard<std::mutex> L(Mu);
  Sites[unsigned(S)].Rate = P < 0 ? 0 : (P > 1 ? 1 : P);
}

void FaultInjector::failFirst(FaultSite S, uint64_t N) {
  std::lock_guard<std::mutex> L(Mu);
  Sites[unsigned(S)].FailFirst = N;
}

void FaultInjector::failAt(FaultSite S, uint64_t N) {
  std::lock_guard<std::mutex> L(Mu);
  Sites[unsigned(S)].FailAt = N;
}

/// splitmix64: a full-period mixer; decisions are a pure function of
/// (seed, site, counter).
static uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

bool FaultInjector::shouldFail(FaultSite S) {
  std::lock_guard<std::mutex> L(Mu);
  SiteState &St = Sites[unsigned(S)];
  uint64_t Probe = St.Probes++;
  bool Fail;
  if (Probe < St.FailFirst || Probe == St.FailAt) {
    Fail = true;
  } else if (St.Rate <= 0) {
    Fail = false;
  } else {
    uint64_t H = mix(Seed ^ (uint64_t(S) * 0x0123456789abcdefull) ^
                     mix(Probe));
    // Top 53 bits as a uniform double in [0, 1).
    double U = double(H >> 11) * 0x1.0p-53;
    Fail = U < St.Rate;
  }
  if (Fail)
    ++St.Injected;
  return Fail;
}

uint64_t FaultInjector::probes(FaultSite S) const {
  std::lock_guard<std::mutex> L(Mu);
  return Sites[unsigned(S)].Probes;
}

uint64_t FaultInjector::injected(FaultSite S) const {
  std::lock_guard<std::mutex> L(Mu);
  return Sites[unsigned(S)].Injected;
}

static FaultInjector *ActiveInjector = nullptr;

FaultInjector *FaultInjector::active() { return ActiveInjector; }
void FaultInjector::setActive(FaultInjector *F) { ActiveInjector = F; }

std::unique_ptr<FaultInjector> FaultInjector::fromEnv() {
  const char *Spec = std::getenv("ISLARIS_FAULTS");
  if (!Spec || !*Spec)
    return nullptr;
  uint64_t Seed = 0;
  if (const char *S = std::getenv("ISLARIS_FAULT_SEED"))
    Seed = std::strtoull(S, nullptr, 0);
  auto F = std::make_unique<FaultInjector>(Seed);

  // "site=rate,site=first:n,..." — malformed entries are skipped.
  std::string Text(Spec);
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Text.size();
    std::string Item = Text.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos)
      continue;
    std::string Name = Item.substr(0, Eq);
    std::string Val = Item.substr(Eq + 1);
    FaultSite Site = FaultSite::CacheRead;
    bool Known = false;
    for (unsigned I = 0; I < NumFaultSites; ++I)
      if (Name == faultSiteName(FaultSite(I))) {
        Site = FaultSite(I);
        Known = true;
        break;
      }
    if (!Known || Val.empty())
      continue;
    if (Val.rfind("first:", 0) == 0)
      F->failFirst(Site, std::strtoull(Val.c_str() + 6, nullptr, 0));
    else if (Val.rfind("at:", 0) == 0)
      F->failAt(Site, std::strtoull(Val.c_str() + 3, nullptr, 0));
    else
      F->setRate(Site, std::strtod(Val.c_str(), nullptr));
  }
  return F;
}

//===----------------------------------------------------------------------===//
// Ambient run limits (support/Guard.h).
//===----------------------------------------------------------------------===//

namespace {
RunLimits AmbientLimits;
}

RunLimits islaris::support::ambientRunLimits() { return AmbientLimits; }
void islaris::support::setAmbientRunLimits(const RunLimits &L) {
  AmbientLimits = L;
}
