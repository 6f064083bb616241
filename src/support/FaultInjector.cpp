//===- support/FaultInjector.cpp - Deterministic fault injection --------------===//

#include "support/FaultInjector.h"

#include "support/Parse.h"

#include <cstdlib>

using namespace islaris::support;

/// The ISLARIS_FAULTS name of each site, in FaultSite order.
static const char *const SiteNames[NumFaultSites] = {
    "cache-read",    "cache-write", "cache-rename", "cache-torn-write",
    "solver-unknown", "exec-step",  "exec-throw",   "crash-publish",
    "crash-journal", "disk-full",   "solver-model"};

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

bool islaris::support::forEachKeyValue(
    std::string_view Spec, const char *Var,
    const std::function<bool(std::string_view, std::string_view)> &Set,
    std::string &Err) {
  while (!Spec.empty()) {
    size_t Comma = Spec.find(',');
    std::string_view Item = Spec.substr(0, Comma);
    Spec.remove_prefix(Comma == std::string_view::npos ? Spec.size()
                                                       : Comma + 1);
    if (Item.empty())
      continue;
    size_t Eq = Item.find('=');
    if (Eq == std::string_view::npos ||
        !Set(Item.substr(0, Eq), Item.substr(Eq + 1))) {
      Err = std::string(Var) + ": bad entry '" + std::string(Item) + "'";
      return false;
    }
  }
  return true;
}

bool islaris::support::faultSeedFromEnv(uint64_t &Seed, std::string &Err) {
  const char *S = std::getenv("ISLARIS_FAULT_SEED");
  if (!S || parseInteger(S, UINT64_MAX, Seed))
    return true;
  Err = std::string("ISLARIS_FAULT_SEED: bad value '") + S + "'";
  return false;
}

std::unique_ptr<FaultInjector> FaultInjector::fromEnv(std::string &Err) {
  const char *Spec = std::getenv("ISLARIS_FAULTS");
  if (!Spec || !*Spec)
    return nullptr;
  uint64_t Seed = 0;
  if (!faultSeedFromEnv(Seed, Err))
    return nullptr;
  auto F = std::make_unique<FaultInjector>(Seed);
  auto Set = [&F](std::string_view Name, std::string_view Val) {
    unsigned I = 0;
    while (I < NumFaultSites && Name != SiteNames[I])
      ++I;
    if (I == NumFaultSites)
      return false;
    FaultSite Site = FaultSite(I);
    uint64_t N = 0;
    double P = 0;
    if (Val.starts_with("first:") && parseInteger(Val.substr(6), UINT64_MAX, N))
      F->failFirst(Site, N);
    else if (Val.starts_with("at:") &&
             parseInteger(Val.substr(3), UINT64_MAX, N))
      F->failAt(Site, N);
    else if (parseDouble(Val, P) && P >= 0 && P <= 1)
      F->setRate(Site, P);
    else
      return false;
    return true;
  };
  if (!forEachKeyValue(Spec, "ISLARIS_FAULTS", Set, Err))
    return nullptr;
  return F;
}
