//===- tests/cache_test.cpp - Trace cache subsystem -----------------------------===//
//
// Covers the cache::* layer end to end: fingerprint stability and
// sensitivity, ExecResult serialization through the ITL printer/parser
// round-trip, LRU bounding and hit/miss/evict counters, in-batch
// deduplication, cross-verifier cache hits, cross-thread determinism of the
// batch driver, on-disk persistence, and the warm-cache behavior of the
// full Fig. 12 case-study suite.
//
//===----------------------------------------------------------------------===//

#include "cache/BatchDriver.h"
#include "cache/Fingerprint.h"
#include "cache/Generations.h"
#include "cache/Journal.h"
#include "cache/Scrub.h"
#include "cache/SideCondCache.h"
#include "cache/TraceCache.h"

#include "arch/AArch64.h"
#include "frontend/CaseStudies.h"
#include "frontend/Verifier.h"
#include "models/Models.h"
#include "server/Protocol.h"
#include "support/FaultInjector.h"
#include "support/Record.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace islaris;
using namespace islaris::cache;
using islaris::frontend::Verifier;
using islaris::itl::Reg;

namespace {

isla::Assumptions el1Assumptions() {
  isla::Assumptions A;
  A.assume(Reg("PSTATE", "EL"), BitVec(2, 0b01));
  A.assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  A.assume(Reg("SCTLR_EL1"), BitVec(64, 0));
  return A;
}

//===----------------------------------------------------------------------===//
// Fingerprints.
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, HexRoundTripAndDeterminism) {
  Fingerprinter FP;
  FP.str("hello").u64(42).boolean(true);
  Fingerprint A = FP.digest();
  Fingerprinter FP2;
  FP2.str("hello").u64(42).boolean(true);
  EXPECT_EQ(A, FP2.digest());

  std::string Hex = A.toHex();
  EXPECT_EQ(Hex.size(), 32u);
  Fingerprint B;
  ASSERT_TRUE(Fingerprint::fromHex(Hex, B));
  EXPECT_EQ(A, B);
  EXPECT_FALSE(Fingerprint::fromHex("zz", B));

  // Length prefixing: a field boundary shift must change the digest.
  Fingerprinter F3, F4;
  F3.str("ab").str("c");
  F4.str("a").str("bc");
  EXPECT_NE(F3.digest(), F4.digest());
}

TEST(FingerprintTest, TraceKeySensitivity) {
  const sail::Model &M = models::aarch64Model();
  isla::Assumptions A = el1Assumptions();
  isla::ExecOptions Opts;
  namespace e = arch::aarch64::enc;
  isla::OpcodeSpec Op = isla::OpcodeSpec::concrete(e::addImm(0, 0, 1));

  Fingerprint Base = traceCacheKey("aarch64", M, Op, A, Opts);
  EXPECT_EQ(Base, traceCacheKey("aarch64", M, Op, A, Opts));

  // Every key ingredient must matter.
  EXPECT_NE(Base, traceCacheKey("rv64", M, Op, A, Opts));
  isla::OpcodeSpec Op2 = isla::OpcodeSpec::concrete(e::addImm(0, 0, 2));
  EXPECT_NE(Base, traceCacheKey("aarch64", M, Op2, A, Opts));
  isla::OpcodeSpec OpSym =
      isla::OpcodeSpec::symbolicField(e::addImm(0, 0, 1), 21, 10);
  EXPECT_NE(Base, traceCacheKey("aarch64", M, OpSym, A, Opts));
  isla::Assumptions A2 = el1Assumptions();
  A2.assume(Reg("HCR_EL2"), BitVec(64, 0));
  EXPECT_NE(Base, traceCacheKey("aarch64", M, Op, A2, Opts));
  isla::ExecOptions Opts2;
  Opts2.SinksOnly = false;
  EXPECT_NE(Base, traceCacheKey("aarch64", M, Op, A, Opts2));

  // Structurally equal constraint closures key equal; different predicates
  // key differently.
  auto mkConstraint = [](uint64_t Bits) {
    isla::Assumptions C;
    C.assume(Reg("PSTATE", "EL"), BitVec(2, 0b10));
    C.assume(Reg("PSTATE", "SP"), BitVec(1, 1));
    C.constrain(Reg("SPSR_EL2"),
                [Bits](smt::TermBuilder &TB, const smt::Term *V) {
                  return TB.eqTerm(V, TB.constBV(64, Bits));
                });
    return C;
  };
  isla::Assumptions C1 = mkConstraint(5), C1b = mkConstraint(5),
                    C2 = mkConstraint(9);
  EXPECT_EQ(traceCacheKey("aarch64", M, Op, C1, Opts),
            traceCacheKey("aarch64", M, Op, C1b, Opts));
  EXPECT_NE(traceCacheKey("aarch64", M, Op, C1, Opts),
            traceCacheKey("aarch64", M, Op, C2, Opts));
}

//===----------------------------------------------------------------------===//
// Serialization round-trips.
//===----------------------------------------------------------------------===//

TEST(TraceCacheTest, EncodeDecodeRoundTripsSymbolicOpcode) {
  const sail::Model &M = models::aarch64Model();
  smt::TermBuilder TB;
  isla::Executor Ex(M, TB);
  namespace e = arch::aarch64::enc;
  // Partially symbolic immediate (the pKVM relocation pattern): the result
  // carries OpcodeVars that must survive serialization by name.
  isla::OpcodeSpec Op =
      isla::OpcodeSpec::symbolicField(e::movz(0, 0), 20, 5);
  isla::ExecResult R = Ex.run(Op, el1Assumptions(), isla::ExecOptions());
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_FALSE(R.OpcodeVars.empty());

  CacheEntry E = TraceCache::encode(R);
  EXPECT_EQ(E.TraceText, R.Trace.toString());
  ASSERT_EQ(E.OpcodeVars.size(), R.OpcodeVars.size());

  smt::TermBuilder TB2;
  isla::ExecResult D;
  std::string Err;
  ASSERT_TRUE(TraceCache::decode(E, TB2, D, Err)) << Err;
  EXPECT_TRUE(D.Ok);
  EXPECT_EQ(D.Trace.toString(), R.Trace.toString());
  ASSERT_EQ(D.OpcodeVars.size(), R.OpcodeVars.size());
  for (size_t I = 0; I < D.OpcodeVars.size(); ++I) {
    EXPECT_EQ(D.OpcodeVars[I]->varName(), R.OpcodeVars[I]->varName());
    EXPECT_EQ(D.OpcodeVars[I]->width(), R.OpcodeVars[I]->width());
  }
  EXPECT_EQ(D.Stats.Events, R.Stats.Events);
  EXPECT_EQ(D.Stats.Paths, R.Stats.Paths);
}

TEST(TraceCacheTest, EntryFileFormatRoundTrips) {
  const sail::Model &M = models::aarch64Model();
  smt::TermBuilder TB;
  isla::Executor Ex(M, TB);
  namespace e = arch::aarch64::enc;
  isla::OpcodeSpec Op = isla::OpcodeSpec::symbolicField(e::movz(3, 0), 20, 5);
  isla::ExecResult R = Ex.run(Op, el1Assumptions(), isla::ExecOptions());
  ASSERT_TRUE(R.Ok) << R.Error;

  Fingerprint K = traceCacheKey("aarch64", M, Op, el1Assumptions(),
                                isla::ExecOptions());
  CacheEntry E = TraceCache::encode(R);
  std::string Text = TraceCache::serializeEntry(K, E);

  CacheEntry E2;
  std::string Err;
  ASSERT_TRUE(TraceCache::parseEntry(Text, E2, Err)) << Err;
  EXPECT_EQ(E2.TraceText, E.TraceText); // byte-identical, not just similar
  EXPECT_EQ(E2.OpcodeVars, E.OpcodeVars);
  EXPECT_EQ(E2.Stats.Events, E.Stats.Events);
  EXPECT_EQ(E2.Stats.SolverQueries, E.Stats.SolverQueries);

  // A mangled header is rejected, not misattributed.  (A file filed under
  // another key is the envelope's to refuse: EnvelopeTest.)
  EXPECT_FALSE(TraceCache::parseEntry("(bogus)", E2, Err));
  EXPECT_FALSE(TraceCache::parseEntry(Text.substr(0, 40), E2, Err));
}

TEST(TraceCacheTest, DecodeRefusesOpcodeVarsNotDeclaredAtTheTopLevel) {
  // Executor::emitPreamble declares every opcode variable at the top level
  // of its trace.  A hand-written entry naming one the trace does not
  // declare there, or declares there at another width, is refused.
  const char *Declared = "(trace\n  (declare-const v0 (_ BitVec 5))\n"
                         "  (assert (= v0 #b00001)))";
  struct Case {
    const char *Trace;
    unsigned Width;
    bool Ok;
  } Cases[] = {
      {Declared, 5, true},
      {Declared, 6, false}, // another width
      {Declared, 0, false}, // the stand-in's old width-0 case
      {"(trace (declare-const v1 (_ BitVec 5)))", 5, false}, // missing
      // Declared only inside one case: not in scope at the top level.
      {"(trace (cases (trace (declare-const v0 (_ BitVec 5))) (trace)))", 5,
       false},
      {"(trace (declare-const v0 Bool))", 1, false}, // not a bitvector
  };
  for (const Case &C : Cases) {
    CacheEntry E;
    E.TraceText = C.Trace;
    E.OpcodeVars.emplace_back("v0", C.Width);
    smt::TermBuilder TB;
    isla::ExecResult R;
    std::string Err;
    EXPECT_EQ(TraceCache::decode(E, TB, R, Err), C.Ok) << C.Trace << " " << Err;
    if (C.Ok) {
      ASSERT_EQ(R.OpcodeVars.size(), 1u);
      EXPECT_EQ(R.OpcodeVars[0]->width(), C.Width);
    } else {
      EXPECT_NE(Err.find("v0"), std::string::npos) << Err;
    }
  }
}

//===----------------------------------------------------------------------===//
// LRU bounding and counters.
//===----------------------------------------------------------------------===//

TEST(TraceCacheTest, LruEvictionAndCounters) {
  TraceCacheConfig Cfg;
  Cfg.MaxEntries = 2;
  TraceCache C(Cfg);

  auto key = [](uint64_t N) {
    Fingerprint F;
    F.Hi = N;
    F.Lo = ~N;
    return F;
  };
  CacheEntry E;
  E.TraceText = "(trace)";

  C.insert(key(1), E);
  C.insert(key(2), E);
  EXPECT_TRUE(C.lookup(key(1)) != nullptr); // 1 becomes most recent
  C.insert(key(3), E);                       // evicts 2, the LRU entry
  EXPECT_EQ(C.size(), 2u);
  EXPECT_FALSE(C.lookup(key(2)) != nullptr);
  EXPECT_TRUE(C.lookup(key(1)) != nullptr);
  EXPECT_TRUE(C.lookup(key(3)) != nullptr);

  CacheStats St = C.stats();
  EXPECT_EQ(St.Insertions, 3u);
  EXPECT_EQ(St.Evictions, 1u);
  EXPECT_EQ(St.Hits, 3u);
  EXPECT_EQ(St.Misses, 1u);

  C.clearMemory();
  EXPECT_EQ(C.size(), 0u);
  EXPECT_EQ(C.stats().Insertions, 3u); // counters survive a clear
}

//===----------------------------------------------------------------------===//
// Verifier integration: dedup, cache hits, determinism.
//===----------------------------------------------------------------------===//

/// A straight-line program whose four middle instructions are the same
/// opcode (a memcpy-loop-body shape): with dedup, one execution serves all.
std::map<uint64_t, uint32_t> repeatedOpcodeProgram() {
  namespace e = arch::aarch64::enc;
  return {{0x1000, e::addImm(0, 0, 1)}, {0x1004, e::addImm(0, 0, 1)},
          {0x1008, e::addImm(0, 0, 1)}, {0x100c, e::addImm(0, 0, 1)},
          {0x1010, e::ret()}};
}

void setupVerifier(Verifier &V) {
  V.addCode(repeatedOpcodeProgram());
  V.defaults()
      .assume(Reg("PSTATE", "EL"), BitVec(2, 0b01))
      .assume(Reg("PSTATE", "SP"), BitVec(1, 1))
      .assume(Reg("SCTLR_EL1"), BitVec(64, 0));
}

std::map<uint64_t, std::string> traceTexts(const Verifier &V) {
  std::map<uint64_t, std::string> Out;
  for (const auto &[Addr, T] : V.instrMap())
    Out[Addr] = T->toString();
  return Out;
}

TEST(VerifierCacheTest, DedupsIdenticalWorkWithoutACache) {
  Verifier V(frontend::aarch64());
  setupVerifier(V);
  std::string Err;
  ASSERT_TRUE(V.generateTraces(Err)) << Err;
  EXPECT_EQ(V.genStats().Instructions, 5u);
  EXPECT_EQ(V.genStats().Executed, 2u); // addImm once, ret once
  EXPECT_EQ(V.genStats().Deduped, 3u);
  EXPECT_EQ(V.genStats().CacheHits, 0u);
  // Deduplicated instructions materialize byte-identical traces.
  auto Texts = traceTexts(V);
  EXPECT_EQ(Texts.at(0x1000), Texts.at(0x1004));
  EXPECT_EQ(Texts.at(0x1000), Texts.at(0x100c));
  EXPECT_NE(Texts.at(0x1000), Texts.at(0x1010));
}

TEST(VerifierCacheTest, PerAddressAssumptionsDefeatDedup) {
  // Same opcode under different assumptions must NOT dedup.
  namespace e = arch::aarch64::enc;
  Verifier V(frontend::aarch64());
  V.addCode({{0x1000, e::addImm(0, 0, 1)}, {0x1004, e::addImm(0, 0, 1)}});
  V.defaults()
      .assume(Reg("PSTATE", "EL"), BitVec(2, 0b10))
      .assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  V.at(0x1004)
      .assume(Reg("PSTATE", "EL"), BitVec(2, 0b01))
      .assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  std::string Err;
  ASSERT_TRUE(V.generateTraces(Err)) << Err;
  EXPECT_EQ(V.genStats().Executed, 2u);
  EXPECT_EQ(V.genStats().Deduped, 0u);
}

TEST(VerifierCacheTest, WarmCacheServesASecondVerifier) {
  TraceCache C;
  std::string Err;

  Verifier V1(frontend::aarch64(), {&C, nullptr, {}});
  setupVerifier(V1);
  ASSERT_TRUE(V1.generateTraces(Err)) << Err;
  EXPECT_EQ(V1.genStats().Executed, 2u);
  EXPECT_EQ(C.size(), 2u);

  Verifier V2(frontend::aarch64(), {&C, nullptr, {}});
  setupVerifier(V2);
  ASSERT_TRUE(V2.generateTraces(Err)) << Err;
  EXPECT_EQ(V2.genStats().Executed, 0u);
  EXPECT_EQ(V2.genStats().CacheHits, 5u);
  EXPECT_EQ(V2.genStats().Deduped, 0u);

  // Cached results are byte-identical with fresh ones, and the cached
  // verifier still proves code: its trace events live in its own builder.
  EXPECT_EQ(traceTexts(V1), traceTexts(V2));
  // The driver dedups before consulting the cache: V2's five instructions
  // become two unique keys, so the cache itself sees two lookups.
  EXPECT_EQ(C.stats().Hits, 2u);
  EXPECT_EQ(C.stats().Misses, 2u); // V1's cold run
}

TEST(VerifierCacheTest, ParallelGenerationIsDeterministic) {
  std::string Err;
  Verifier Serial(frontend::aarch64());
  setupVerifier(Serial);
  Serial.setParallelism(1);
  ASSERT_TRUE(Serial.generateTraces(Err)) << Err;

  Verifier Par(frontend::aarch64());
  setupVerifier(Par);
  Par.setParallelism(4);
  ASSERT_TRUE(Par.generateTraces(Err)) << Err;

  EXPECT_EQ(traceTexts(Serial), traceTexts(Par));
  EXPECT_EQ(Par.genStats().Executed, Serial.genStats().Executed);
  EXPECT_EQ(Par.genStats().ItlEvents, Serial.genStats().ItlEvents);
}

TEST(VerifierCacheTest, SymbolicOpcodeVarsSurviveTheCache) {
  // The pKVM pattern: a partially symbolic opcode whose fresh immediate
  // variables are consumed by the spec.  They must resolve after a cache
  // hit exactly as after a fresh run.
  namespace e = arch::aarch64::enc;
  TraceCache C;
  for (int Round = 0; Round < 2; ++Round) {
    Verifier V(frontend::aarch64(), {&C, nullptr, {}});
    V.addCode({{0x2000, e::movz(0, 0)}});
    V.symbolicAt(0x2000, 20, 5);
    V.defaults()
        .assume(Reg("PSTATE", "EL"), BitVec(2, 0b01))
        .assume(Reg("PSTATE", "SP"), BitVec(1, 1))
        .assume(Reg("SCTLR_EL1"), BitVec(64, 0));
    std::string Err;
    ASSERT_TRUE(V.generateTraces(Err)) << Err;
    const auto &Vars = V.opcodeVarsAt(0x2000);
    ASSERT_EQ(Vars.size(), 1u);
    EXPECT_EQ(Vars[0]->width(), 16u);
    // The variable is the one declared inside this verifier's trace.
    EXPECT_NE(V.traceAt(0x2000)->toString().find(Vars[0]->varName()),
              std::string::npos);
    EXPECT_EQ(V.genStats().CacheHits, Round == 0 ? 0u : 1u);
  }
}

//===----------------------------------------------------------------------===//
// Persistence.
//===----------------------------------------------------------------------===//

struct TempDir {
  std::filesystem::path Path;
  TempDir() {
    Path = std::filesystem::temp_directory_path() /
           ("islaris-cache-test-" + std::to_string(::getpid()));
    std::filesystem::remove_all(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
};

std::string readFileRaw(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void writeFileRaw(const std::filesystem::path &P, const std::string &S) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out.write(S.data(), std::streamsize(S.size()));
}

/// The key an entry file's name promises.
Fingerprint entryKey(const std::filesystem::path &P) {
  Fingerprint K;
  EXPECT_TRUE(Fingerprint::fromHex(P.stem().string(), K)) << P;
  return K;
}

/// Entry files under \p Root, excluding the quarantine area.
std::vector<std::filesystem::path>
entryFiles(const std::filesystem::path &Root) {
  std::vector<std::filesystem::path> Out;
  if (!std::filesystem::exists(Root))
    return Out;
  for (const auto &F : std::filesystem::recursive_directory_iterator(Root))
    if (F.is_regular_file() &&
        F.path().string().find("quarantine") == std::string::npos)
      Out.push_back(F.path());
  return Out;
}

TEST(TraceCacheTest, PersistsAcrossCacheInstances) {
  TempDir Tmp;
  TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();

  std::string Err;
  {
    TraceCache C(Cfg);
    Verifier V(frontend::aarch64(), {&C, nullptr, {}});
    setupVerifier(V);
    ASSERT_TRUE(V.generateTraces(Err)) << Err;
    EXPECT_EQ(C.stats().DiskWrites, 2u);
  }

  // A brand-new cache instance (a "second process") over the same
  // directory serves everything from disk.
  TraceCache C2(Cfg);
  Verifier V2(frontend::aarch64(), {&C2, nullptr, {}});
  setupVerifier(V2);
  ASSERT_TRUE(V2.generateTraces(Err)) << Err;
  EXPECT_EQ(V2.genStats().Executed, 0u);
  EXPECT_EQ(V2.genStats().CacheHits, 5u);
  EXPECT_EQ(C2.stats().DiskHits, 2u);
  EXPECT_EQ(C2.stats().DiskWrites, 0u);

  // A corrupt entry file degrades to a miss, never to a wrong trace.
  TraceCache C3(Cfg);
  for (const auto &F :
       std::filesystem::recursive_directory_iterator(Tmp.Path))
    if (F.is_regular_file())
      std::filesystem::resize_file(F.path(), 10);
  Verifier V3(frontend::aarch64(), {&C3, nullptr, {}});
  setupVerifier(V3);
  ASSERT_TRUE(V3.generateTraces(Err)) << Err;
  EXPECT_EQ(V3.genStats().Executed, 2u);
}

// An entry whose envelope verifies but whose trace does not decode fails
// the run that reads it, and is forgotten: dropped from memory and
// quarantined on disk, so the next run executes afresh and verifies.
TEST(TraceCacheTest, UndecodableEntryIsDiscardedSoTheNextRunVerifies) {
  TempDir Tmp;
  TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  std::string Err;
  {
    TraceCache C(Cfg);
    Verifier V(frontend::aarch64(), {&C, nullptr, {}});
    setupVerifier(V);
    ASSERT_TRUE(V.generateTraces(Err)) << Err;
  }
  std::vector<std::filesystem::path> Files;
  for (const auto &F : entryFiles(Tmp.Path))
    if (F.extension() == TraceEntryExt)
      Files.push_back(F);
  ASSERT_EQ(Files.size(), 2u);
  // Trailing input after the trace, re-enveloped: the checksum is valid
  // and cachectl scrub would call the file OK.
  Fingerprint K = entryKey(Files[0]);
  std::string Payload;
  ASSERT_EQ(unwrapDurableEntry(readFileRaw(Files[0]), K, Payload),
            EnvelopeResult::Ok);
  writeFileRaw(Files[0], wrapDurableEntry(K, Payload + "(trace)\n"));

  TraceCache C(Cfg);
  Verifier V1(frontend::aarch64(), {&C, nullptr, {}});
  setupVerifier(V1);
  EXPECT_FALSE(V1.generateTraces(Err));
  EXPECT_EQ(V1.diag().Code, support::ErrorCode::CorruptCacheEntry);
  EXPECT_FALSE(std::filesystem::exists(Files[0]));
  EXPECT_TRUE(std::filesystem::exists(Tmp.Path / "quarantine" /
                                      Files[0].filename()));
  EXPECT_EQ(C.stats().Quarantined, 1u);
  EXPECT_EQ(C.size(), 1u); // the good entry stays

  Verifier V2(frontend::aarch64(), {&C, nullptr, {}});
  setupVerifier(V2);
  ASSERT_TRUE(V2.generateTraces(Err)) << Err;
  EXPECT_EQ(V2.genStats().Executed, 1u);
  EXPECT_TRUE(std::filesystem::exists(Files[0])); // republished
}

// Entries are sharded into 256 fan-out subdirectories keyed on the leading
// fingerprint byte.  Readers open the sharded path only: an entry placed
// flat at the store root (the pre-sharding layout) is a miss, and lookup
// leaves the file alone.
TEST(TraceCacheTest, ShardedLayoutAndFlatPlacementIsAMiss) {
  TempDir Tmp;
  TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();

  // The generation registry and its manifests live alongside the entries
  // but are not entries; the layout assertions below apply only to entry
  // files.
  auto IsBookkeeping = [](const std::filesystem::path &P) {
    return P.filename() == "generations.txt" ||
           P.parent_path().filename() == "manifests";
  };

  std::string Err;
  {
    TraceCache C(Cfg);
    Verifier V(frontend::aarch64(), {&C, nullptr, {}});
    setupVerifier(V);
    ASSERT_TRUE(V.generateTraces(Err)) << Err;
    EXPECT_EQ(C.stats().DiskWrites, 2u);
  }

  // Every entry file sits one level deep, in a subdirectory named by the
  // first two hex characters of its own fingerprint.
  std::vector<std::filesystem::path> Entries;
  for (const auto &F :
       std::filesystem::recursive_directory_iterator(Tmp.Path)) {
    if (!F.is_regular_file() || IsBookkeeping(F.path()))
      continue;
    Entries.push_back(F.path());
    std::string Name = F.path().filename().string();
    std::string Shard = F.path().parent_path().filename().string();
    EXPECT_EQ(Shard.size(), 2u);
    EXPECT_EQ(Name.substr(0, 2), Shard);
  }
  EXPECT_EQ(Entries.size(), 2u);

  // Flatten the store: a fresh instance misses, re-executes, republishes
  // into the shards, and never touches the flat files.
  std::vector<std::filesystem::path> Flat;
  for (const auto &P : Entries) {
    Flat.push_back(Tmp.Path / P.filename());
    std::filesystem::rename(P, Flat.back());
  }
  TraceCache C2(Cfg);
  Verifier V2(frontend::aarch64(), {&C2, nullptr, {}});
  setupVerifier(V2);
  ASSERT_TRUE(V2.generateTraces(Err)) << Err;
  EXPECT_EQ(V2.genStats().Executed, 2u);
  EXPECT_EQ(C2.stats().DiskHits, 0u);
  EXPECT_EQ(C2.stats().Quarantined, 0u);
  EXPECT_EQ(C2.stats().DiskWrites, 2u);
  EXPECT_TRUE(C2.drainDiags().empty());
  for (const auto &P : Flat)
    EXPECT_TRUE(std::filesystem::exists(P)) << P;
  for (const auto &P : Entries)
    EXPECT_TRUE(std::filesystem::exists(P)) << P;
}

TEST(TraceCacheTest, CacheDirResolution) {
  ::setenv("ISLARIS_CACHE_DIR", "/tmp/islaris-override", 1);
  EXPECT_EQ(resolveCacheDir(), "/tmp/islaris-override");
  ::setenv("ISLARIS_CACHE_DIR", "", 1);
  EXPECT_EQ(resolveCacheDir(), "build/.trace-cache"); // empty = unset
  ::unsetenv("ISLARIS_CACHE_DIR");
  EXPECT_EQ(resolveCacheDir(), "build/.trace-cache");
}

//===----------------------------------------------------------------------===//
// The Fig. 12 suite under the cache and the batch driver.
//===----------------------------------------------------------------------===//

TEST(SuiteCacheTest, WarmSuiteRegeneratesNothingAndMatchesCold) {
  // Every case-study trace round-trips through serialize -> parse on every
  // materialization (decode fails loudly if the ITL grammar were
  // inadequate), so a green warm run IS the round-trip check for all nine
  // Fig. 12 rows.
  TraceCache C;
  frontend::SuiteOptions Opts;
  Opts.Threads = 1;
  Opts.Cache = &C;
  std::vector<frontend::CaseResult> Cold =
      frontend::runAllCaseStudies(Opts);
  std::vector<frontend::CaseResult> Warm =
      frontend::runAllCaseStudies(Opts);

  ASSERT_EQ(Cold.size(), Warm.size());
  unsigned WarmExecuted = 0;
  for (size_t I = 0; I < Cold.size(); ++I) {
    EXPECT_TRUE(Cold[I].Ok) << Cold[I].Name << ": " << Cold[I].Error;
    EXPECT_TRUE(Warm[I].Ok) << Warm[I].Name << ": " << Warm[I].Error;
    EXPECT_EQ(Warm[I].ItlEvents, Cold[I].ItlEvents) << Warm[I].Name;
    EXPECT_EQ(Warm[I].AsmInstrs, Cold[I].AsmInstrs) << Warm[I].Name;
    EXPECT_EQ(Warm[I].CacheHits, Warm[I].AsmInstrs) << Warm[I].Name;
    WarmExecuted += Warm[I].TracesExecuted;
  }
  EXPECT_EQ(WarmExecuted, 0u); // 100% hit rate on the warm run
}

//===----------------------------------------------------------------------===//
// Side-condition solver store.
//===----------------------------------------------------------------------===//

/// Publishes \p R as the answer for goal-set key \p K in bundle \p B.
void putAnswer(SideCondStore &S, const Fingerprint &B, const Fingerprint &K,
               const smt::SolverCache::CachedResult &R) {
  auto Bn = S.openBundle(B);
  Bn->store(K, R);
  Bn->publish();
}

/// The answer bundle \p B serves for goal-set key \p K, accepted unchecked.
std::optional<smt::SolverCache::CachedResult>
getAnswer(SideCondStore &S, const Fingerprint &B, const Fingerprint &K) {
  std::optional<smt::SolverCache::CachedResult> Out;
  S.openBundle(B)->lookup(K, {}, [&](const auto &R) {
    Out = R;
    return true;
  });
  return Out;
}

Fingerprint bundleKey(const char *Name) {
  return Fingerprinter().str(Name).digest();
}

/// x + 3 = 10 over 16 bits: satisfiable by x = 7 only.
const smt::Term *xPlus3Is10(smt::TermBuilder &TB) {
  const smt::Term *X = TB.freshVar(smt::Sort::bitvec(16), "x");
  return TB.eqTerm(TB.bvAdd(X, TB.constBV(16, 3)), TB.constBV(16, 10));
}

/// Checks xPlus3Is10 in a fresh builder against bundle \p B of \p Store,
/// publishing the bundle afterwards; returns the solver's stats.
smt::SolverStats checkThroughBundle(SideCondStore &Store,
                                    const Fingerprint &B) {
  smt::TermBuilder TB;
  smt::Solver S(TB);
  auto Bn = Store.openBundle(B);
  S.setCache(Bn.get());
  S.assertTerm(xPlus3Is10(TB));
  EXPECT_EQ(S.check(), smt::Result::Sat);
  EXPECT_EQ(S.modelValue(TB.varById(0)).asBitVec().toUInt64(), 7u);
  Bn->publish();
  return S.stats();
}

TEST(SideCondTest, BundleSerializationRoundTrips) {
  smt::SolverCache::CachedResult R;
  R.Sat = true;
  R.Model.emplace_back("b", 0u, BitVec(1, 1));   // boolean (width 0)
  R.Model.emplace_back("x", 16u, BitVec(16, 7)); // bitvector
  smt::SolverCache::CachedResult U; // unsat answers carry no model
  SideCondStore::Answers A;
  A[Fingerprinter().str("sat").digest()] = R;
  A[Fingerprinter().str("unsat").digest()] = U;
  Fingerprint K = bundleKey("k");

  std::string Text = SideCondStore::serializeBundle(K, A);
  SideCondStore::Answers Out;
  std::string Err;
  ASSERT_TRUE(SideCondStore::parseBundle(Text, Out, Err)) << Err;
  EXPECT_EQ(Out, A);
  EXPECT_EQ(std::get<1>(Out[Fingerprinter().str("sat").digest()].Model[0]),
            0u);

  // Truncation degrades to a parse failure (a miss).  (A bundle filed
  // under another key is the envelope's to refuse: EnvelopeTest.)
  EXPECT_FALSE(SideCondStore::parseBundle(Text.substr(0, Text.size() / 2),
                                          Out, Err));
  // An empty bundle is a header alone.
  std::string Empty = SideCondStore::serializeBundle(K, {});
  ASSERT_TRUE(SideCondStore::parseBundle(Empty, Out, Err)) << Err;
  EXPECT_TRUE(Out.empty());
}

TEST(SideCondTest, KeyIsPinned) {
  // Answers are keyed by this digest inside every persisted bundle: a
  // change to how it is computed silently orphans every persisted store,
  // so one goal set's key is pinned.
  smt::TermBuilder TB;
  smt::Solver S(TB);
  std::vector<const smt::Term *> Goals = {xPlus3Is10(TB)};
  std::vector<const smt::Term *> Vars = smt::collectVars(Goals[0]);
  auto K = S.goalSetKey(Goals, Vars);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(K->toHex(), "23009ce5e5003ed5fcd61e86444e4fbe");
  const smt::Term *Y = TB.freshVar(smt::Sort::bitvec(16), "y");
  std::vector<const smt::Term *> Other = {TB.bvUlt(Y, TB.constBV(16, 3))};
  Vars = {Y};
  EXPECT_NE(S.goalSetKey(Other, Vars), K);
}

TEST(SideCondTest, PersistsAcrossStoreInstances) {
  TempDir Tmp;
  SideCondConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  Fingerprint B = bundleKey("proof");

  // Populate through a real solver.
  {
    SideCondStore Store(Cfg);
    EXPECT_EQ(checkThroughBundle(Store, B).NumSatCalls, 1u);
    EXPECT_EQ(Store.stats().DiskWrites, 1u);
  }

  // A brand-new store instance (a "second process") over the same
  // directory answers from the bundle: no SAT call, identical model, and
  // nothing to republish.
  {
    SideCondStore Store(Cfg);
    smt::SolverStats St = checkThroughBundle(Store, B);
    EXPECT_EQ(St.NumSatCalls, 0u);
    EXPECT_EQ(St.NumStoreHits, 1u);
    EXPECT_EQ(Store.stats().DiskHits, 1u);
    EXPECT_EQ(Store.stats().DiskWrites, 0u);
  }

  // Corrupt bundles degrade to misses, never to wrong verdicts.
  SideCondStore Store3(Cfg);
  for (const auto &F :
       std::filesystem::recursive_directory_iterator(Tmp.Path))
    if (F.is_regular_file())
      std::filesystem::resize_file(F.path(), 8);
  EXPECT_EQ(checkThroughBundle(Store3, B).NumSatCalls, 1u);
  EXPECT_EQ(Store3.stats().Misses, 1u);
  EXPECT_EQ(Store3.stats().Quarantined, 1u);
}

// A stored Sat answer is installed only if its model satisfies the goals.
// A forged bundle with a valid envelope and key but a wrong model is a
// counted miss: the goal is solved again and the bundle republished with
// the right model.
TEST(SideCondTest, ForgedModelIsRefusedAndTheBundleRepublished) {
  TempDir Tmp;
  SideCondConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  Fingerprint B = bundleKey("forged");
  {
    SideCondStore Store(Cfg);
    checkThroughBundle(Store, B);
  }
  auto Files = entryFiles(Tmp.Path);
  ASSERT_EQ(Files.size(), 1u);
  std::string Payload;
  ASSERT_EQ(unwrapDurableEntry(readFileRaw(Files[0]), B, Payload),
            EnvelopeResult::Ok);
  size_t At = Payload.find("(|x| 16 #x0007)");
  ASSERT_NE(At, std::string::npos) << Payload;
  Payload.replace(At, 15, "(|x| 16 #x0008)");
  writeFileRaw(Files[0], wrapDurableEntry(B, Payload));

  {
    SideCondStore Store(Cfg);
    smt::SolverStats St = checkThroughBundle(Store, B);
    EXPECT_EQ(St.NumStoreHits, 0u);
    EXPECT_EQ(St.NumSatCalls, 1u);
    SideCondStats SS = Store.stats();
    EXPECT_EQ(SS.Rejected, 1u);
    EXPECT_EQ(SS.Misses, 1u);
    EXPECT_EQ(SS.DiskHits, 0u);
    EXPECT_EQ(SS.Insertions, 1u);
    EXPECT_EQ(SS.DiskWrites, 1u); // republished
    EXPECT_EQ(SS.Quarantined, 0u); // the envelope was fine
  }
  ASSERT_EQ(unwrapDurableEntry(readFileRaw(Files[0]), B, Payload),
            EnvelopeResult::Ok);
  EXPECT_NE(Payload.find("(|x| 16 #x0007)"), std::string::npos);
  SideCondStore Store(Cfg);
  smt::SolverStats St = checkThroughBundle(Store, B);
  EXPECT_EQ(St.NumStoreHits, 1u);
  EXPECT_EQ(Store.stats().Rejected, 0u);
}

// Bundles use the same 256-way sharded layout as the trace cache, and a
// flat-placed bundle is likewise a miss that lookup leaves alone.
TEST(SideCondTest, ShardedLayoutAndFlatPlacementIsAMiss) {
  TempDir Tmp;
  SideCondConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  Fingerprint B = bundleKey("sharded");
  {
    SideCondStore Store(Cfg);
    EXPECT_EQ(checkThroughBundle(Store, B).NumSatCalls, 1u);
    EXPECT_EQ(Store.stats().DiskWrites, 1u);
  }

  // The bundle landed in a two-hex-character shard subdirectory matching
  // its own fingerprint prefix; flatten it to the store root.
  auto Entries = entryFiles(Tmp.Path);
  ASSERT_EQ(Entries.size(), 1u);
  std::string Name = Entries[0].filename().string();
  std::string Shard = Entries[0].parent_path().filename().string();
  EXPECT_EQ(Name, B.toHex() + ".scc");
  EXPECT_EQ(Name.substr(0, 2), Shard);
  std::filesystem::path Flat = Tmp.Path / Name;
  std::filesystem::rename(Entries[0], Flat);

  SideCondStore Store2(Cfg);
  // Solved again: the flat file is not read.
  EXPECT_EQ(checkThroughBundle(Store2, B).NumSatCalls, 1u);
  EXPECT_EQ(Store2.stats().DiskHits, 0u);
  EXPECT_EQ(Store2.stats().Quarantined, 0u);
  EXPECT_TRUE(std::filesystem::exists(Flat));
  EXPECT_TRUE(std::filesystem::exists(Entries[0])); // republished
}

// Concurrent writers racing on the SAME bundle keys from several store
// instances sharing one directory (the cross-process scenario).  Every
// bundle must end up parseable and no ".tmp" litter may survive.
TEST(SideCondTest, ConcurrentWritersWithCollidingKeys) {
  TempDir Tmp;
  constexpr unsigned Writers = 8, Keys = 16;

  // Side-condition bundles (last writer wins)...
  {
    SideCondConfig Cfg;
    Cfg.Persist = true;
    Cfg.Dir = Tmp.Path.string();
    smt::SolverCache::CachedResult R;
    R.Sat = true;
    R.Model.emplace_back("x", 8u, BitVec(8, 42));
    Fingerprint GK = Fingerprinter().str("goals").digest();
    std::vector<std::thread> Ts;
    for (unsigned W = 0; W < Writers; ++W)
      Ts.emplace_back([&] {
        SideCondStore Store(Cfg); // each thread = its own "process"
        for (unsigned K = 0; K < Keys; ++K)
          putAnswer(Store, Fingerprinter().u64(K).digest(), GK, R);
      });
    for (auto &T : Ts)
      T.join();

    for (unsigned K = 0; K < Keys; ++K) {
      SideCondStore Reader(Cfg); // fresh memory: each read hits the disk
      auto Hit = getAnswer(Reader, Fingerprinter().u64(K).digest(), GK);
      ASSERT_TRUE(Hit.has_value()) << K;
      EXPECT_EQ(*Hit, R);
      EXPECT_EQ(Reader.stats().DiskHits, 1u);
    }
  }

  // ... and trace-cache entries through the shared atomic writer
  // (first writer wins).
  {
    TraceCacheConfig Cfg;
    Cfg.Persist = true;
    Cfg.Dir = (Tmp.Path / "traces").string();
    CacheEntry E;
    E.TraceText = "(trace)";
    E.Stats.Paths = 1;
    std::vector<std::thread> Ts;
    for (unsigned W = 0; W < Writers; ++W)
      Ts.emplace_back([&] {
        TraceCache C(Cfg);
        for (unsigned K = 0; K < Keys; ++K)
          C.insert(Fingerprinter().u64(K).digest(), E);
      });
    for (auto &T : Ts)
      T.join();
    TraceCache Reader(Cfg);
    for (unsigned K = 0; K < Keys; ++K)
      EXPECT_TRUE(
          Reader.lookup(Fingerprinter().u64(K).digest()) != nullptr)
          << K;
  }

  // No orphaned temp files anywhere under the shared directory.
  for (const auto &F :
       std::filesystem::recursive_directory_iterator(Tmp.Path))
    EXPECT_EQ(F.path().string().find(".tmp"), std::string::npos)
        << F.path();
}

TEST(SuiteCacheTest, WarmSideCondStoreEliminatesSatCalls) {
  TempDir Tmp;
  SideCondConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = (Tmp.Path / "sidecond").string();

  frontend::SuiteOptions Opts;
  Opts.Threads = 1;
  std::vector<frontend::CaseResult> Cold, Warm;
  {
    SideCondStore Store(Cfg);
    Opts.SideCond = &Store;
    Cold = frontend::runAllCaseStudies(Opts);
  }
  {
    SideCondStore Store(Cfg); // fresh instance: only the disk is warm
    Opts.SideCond = &Store;
    Warm = frontend::runAllCaseStudies(Opts);
    EXPECT_GT(Store.stats().DiskHits, 0u);
  }

  ASSERT_EQ(Cold.size(), Warm.size());
  uint64_t ColdSat = 0, WarmSat = 0, WarmStoreHits = 0;
  for (size_t I = 0; I < Cold.size(); ++I) {
    EXPECT_TRUE(Cold[I].Ok) << Cold[I].Name << ": " << Cold[I].Error;
    EXPECT_TRUE(Warm[I].Ok) << Warm[I].Name << ": " << Warm[I].Error;
    // Verdicts and proof shape must be identical with and without hits.
    EXPECT_EQ(Warm[I].ItlEvents, Cold[I].ItlEvents) << Warm[I].Name;
    EXPECT_EQ(Warm[I].Proof.PathsVerified, Cold[I].Proof.PathsVerified)
        << Warm[I].Name;
    EXPECT_EQ(Warm[I].Proof.SolverQueries, Cold[I].Proof.SolverQueries)
        << Warm[I].Name;
    ColdSat += Cold[I].Proof.SolverSatCalls;
    WarmSat += Warm[I].Proof.SolverSatCalls;
    WarmStoreHits += Warm[I].Proof.SolverStoreHits;
  }
  EXPECT_GT(ColdSat, 0u);
  EXPECT_GT(WarmStoreHits, 0u);
  // The acceptance criterion: at least half of all side-condition SAT
  // calls are answered by the store on a warm rerun.
  EXPECT_LE(WarmSat * 2, ColdSat)
      << "warm=" << WarmSat << " cold=" << ColdSat;
}

//===----------------------------------------------------------------------===//
// Durability envelope.
//===----------------------------------------------------------------------===//

TEST(EnvelopeTest, WrapUnwrapAndFailureTaxonomy) {
  Fingerprint K = Fingerprinter().str("envelope").digest();
  std::string Payload = "(islaris-trace-cache 1 00ff) body\nwith newline";
  std::string File = wrapDurableEntry(K, Payload);
  ASSERT_EQ(File.compare(0, 17, "(islaris-entry 4 "), 0);
  std::string Out;
  EXPECT_EQ(unwrapDurableEntry(File, K, Out), EnvelopeResult::Ok);
  EXPECT_EQ(Out, Payload);

  // A headerless file (the pre-envelope format) is corrupt: it is never
  // handed to a parser without a checksum.
  Out.clear();
  EXPECT_EQ(unwrapDurableEntry(Payload, K, Out), EnvelopeResult::Corrupt);
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(unwrapDurableEntry("", K, Out), EnvelopeResult::Empty);

  // Every corruption shape is detected before any parser sees the bytes.
  std::string Flip = File;
  Flip[Flip.size() - 2] = char(Flip[Flip.size() - 2] ^ 0x40);
  EXPECT_EQ(unwrapDurableEntry(Flip, K, Out), EnvelopeResult::Corrupt);
  EXPECT_EQ(unwrapDurableEntry(File.substr(0, File.size() - 1), K, Out),
            EnvelopeResult::Corrupt); // truncated payload
  EXPECT_EQ(unwrapDurableEntry(File.substr(0, 20), K, Out),
            EnvelopeResult::Corrupt); // header torn mid-line
  EXPECT_EQ(unwrapDurableEntry(File + File, K, Out),
            EnvelopeResult::Corrupt); // not exactly one record
  std::string BadVer = File;
  BadVer[15] = '7'; // an unknown-but-well-formed version is NOT guessed at
  EXPECT_EQ(unwrapDurableEntry(BadVer, K, Out), EnvelopeResult::BadVersion);
  // What version 2 wrote: checksum before size, no key.
  EXPECT_EQ(unwrapDurableEntry("(islaris-entry 2 " +
                                   std::string(16, '0') + " 0)\n",
                               K, Out),
            EnvelopeResult::BadVersion);
  // What version 3 wrote: the same layout, summed by byte-wise FNV-1a.
  char V3Sum[17];
  std::snprintf(V3Sum, sizeof V3Sum, "%016llx",
                (unsigned long long)fnv1a64(Payload));
  EXPECT_EQ(unwrapDurableEntry("(islaris-entry 3 " + K.toHex() + " " +
                                   std::to_string(Payload.size()) + " " +
                                   V3Sum + ")\n" + Payload + "\n",
                               K, Out),
            EnvelopeResult::BadVersion);
  // Hostile lengths never index past the file: 20 digits overflow, and
  // 2^64-1 is beyond the bytes that remain.
  std::string Hex = K.toHex();
  for (const char *Len : {"99999999999999999999", "18446744073709551615"})
    EXPECT_EQ(unwrapDurableEntry("(islaris-entry 4 " + Hex + " " + Len +
                                     " 0000000000000000)\n" + Payload + "\n",
                                 K, Out),
              EnvelopeResult::Corrupt)
        << Len;

  // A verified record filed under another key is refused, not served.
  Fingerprint Other = K;
  Other.Lo ^= 1;
  EXPECT_EQ(unwrapDurableEntry(File, Other, Out), EnvelopeResult::Misnamed);
  EXPECT_EQ(envelopeErrorCode(EnvelopeResult::Misnamed),
            support::ErrorCode::CorruptCacheEntry);

  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull); // FNV-1a offset basis
  EXPECT_EQ(fnv1a64("islaris"), fnv1a64("islaris"));
  EXPECT_NE(fnv1a64("islaris"), fnv1a64("islariS"));

  using support::ErrorCode;
  EXPECT_EQ(envelopeErrorCode(EnvelopeResult::Corrupt),
            ErrorCode::ChecksumMismatch);
  EXPECT_EQ(envelopeErrorCode(EnvelopeResult::BadVersion),
            ErrorCode::CacheVersionMismatch);
  EXPECT_EQ(envelopeErrorCode(EnvelopeResult::Empty),
            ErrorCode::CorruptCacheEntry);
}

//===----------------------------------------------------------------------===//
// The record codec under corruption: one wire frame, one journal record and
// one store entry, each checked by the code that reads it.
//===----------------------------------------------------------------------===//

TEST(RecordCorruptionTest, ChecksumIsPinned) {
  // The word-at-a-time checksum is a durable format: a drift would strand
  // every store entry and journal on disk.  The inputs cover the empty
  // payload, a lone tail word, and whole 32-byte stripes plus a tail.
  EXPECT_EQ(support::recordChecksum(""), 0x0da92de544bbfe58ull);
  EXPECT_EQ(support::recordChecksum("islaris"), 0xd5fdf2328e10138full);
  EXPECT_EQ(support::recordChecksum(
                "The quick brown fox jumps over the lazy dog"),
            0x9186a353debe553bull);
  // The length is summed too: a zero-padded tail word is not its padding.
  EXPECT_NE(support::recordChecksum("islaris"),
            support::recordChecksum(std::string_view("islaris\0", 8)));
}

TEST(RecordCorruptionTest, EverySingleBitFlipAndStrictPrefixIsRejected) {
  Fingerprint K{0x0123456789abcdefull, 0xfedcba9876543210ull};
  struct Case {
    const char *Magic;
    uint64_t Version;
    std::string Record;
    /// Whether the record's own reader takes \p Bytes as this record.
    std::function<bool(const std::string &)> Accepts;
  };
  std::vector<Case> Cases = {
      {"islaris-frame", 2,
       server::encodeFrame({server::FrameType::Trace,
                            server::encodeIdPayload(7, "(trace (cycle))")}),
       [](const std::string &Bytes) {
         server::FrameReader R;
         R.feed(Bytes.data(), Bytes.size());
         server::Frame F;
         return R.next(F) == server::FrameReader::Status::Frame;
       }},
      {"islaris-journal", 2, RunJournal::encodeRecord(K, "case 4 row\n"),
       [&K](const std::string &Bytes) {
         support::RecordParse R = support::parseRecord(
             Bytes, "islaris-journal", 2, UINT64_MAX);
         return R.S == support::RecordParse::Ok && R.Tag == K.toHex();
       }},
      {"islaris-entry", DurableFormatVersion,
       wrapDurableEntry(K, "(islaris-trace-cache 1 x)\n(trace)\n"),
       [&K](const std::string &Bytes) {
         std::string Out;
         return unwrapDurableEntry(Bytes, K, Out) == EnvelopeResult::Ok;
       }},
  };
  for (const Case &C : Cases) {
    const std::string &Rec = C.Record;
    SCOPED_TRACE(Rec);
    ASSERT_TRUE(C.Accepts(Rec));
    auto Parse = [&](std::string_view Bytes) {
      return support::parseRecord(Bytes, C.Magic, C.Version, Rec.size());
    };
    size_t Body = Rec.find('\n') + 1, Term = Rec.size() - 1;
    size_t SumSp = Rec.rfind(' ', Body), LenSp = Rec.rfind(' ', SumSp - 1);
    for (size_t I = 0; I < Rec.size(); ++I)
      for (unsigned Bit = 0; Bit < 8; ++Bit) {
        std::string Bad = Rec;
        Bad[I] = char(Bad[I] ^ (1u << Bit));
        SCOPED_TRACE("byte " + std::to_string(I) + " bit " +
                     std::to_string(Bit));
        EXPECT_FALSE(C.Accepts(Bad));
        support::RecordParse R = Parse(Bad);
        if (I >= Body && I < Term) {
          EXPECT_EQ(R.S, support::RecordParse::Malformed);
          EXPECT_STREQ(R.Why, "record checksum mismatch");
        } else if (I == Term) {
          EXPECT_EQ(R.S, support::RecordParse::Malformed);
        } else if (R.S == support::RecordParse::NeedMore) {
          // Only a length that grew past the bytes there waits for more.
          EXPECT_TRUE(I > LenSp && I < SumSp);
        } else {
          EXPECT_TRUE(R.S == support::RecordParse::Malformed ||
                      R.S == support::RecordParse::BadVersion);
        }
      }
    for (size_t Cut = 0; Cut < Rec.size(); ++Cut) {
      EXPECT_EQ(Parse(std::string_view(Rec).substr(0, Cut)).S,
                support::RecordParse::NeedMore)
          << Cut;
      EXPECT_FALSE(C.Accepts(Rec.substr(0, Cut))) << Cut;
    }
  }
}

//===----------------------------------------------------------------------===//
// The disk contract, checked once over both stores: every corruption class
// is a miss, attributed with the right Diag code and quarantined (never a
// crash, never a wrong hit); publication is first-writer-wins; the
// degraded-mode switch keeps the disk untouched; a full device counts a
// write failure without claiming the directory is unwritable.
//===----------------------------------------------------------------------===//

struct CorruptionCase {
  const char *What;
  unsigned Kind;
  support::ErrorCode Expect;
};

constexpr CorruptionCase CorruptionMatrix[] = {
    {"truncated payload", 0, support::ErrorCode::ChecksumMismatch},
    {"bit-flipped byte", 1, support::ErrorCode::ChecksumMismatch},
    {"wrong version header", 2, support::ErrorCode::CacheVersionMismatch},
    {"zero-length file", 3, support::ErrorCode::CorruptCacheEntry},
    {"headerless payload", 4, support::ErrorCode::ChecksumMismatch},
};

void corruptFile(const std::filesystem::path &P, unsigned Kind) {
  std::string T = readFileRaw(P);
  switch (Kind) {
  case 0:
    writeFileRaw(P, T.substr(0, T.size() - 5));
    break;
  case 1: {
    size_t NL = T.find('\n');
    size_t At = NL + 1 + (T.size() - NL) / 2;
    T[At] = char(T[At] ^ 0x01);
    writeFileRaw(P, T);
    break;
  }
  case 2:
    T[15] = '9'; // "(islaris-entry 9 ..." — valid shape, unknown version
    writeFileRaw(P, T);
    break;
  case 3:
    writeFileRaw(P, "");
    break;
  case 4: {
    std::string Payload;
    ASSERT_EQ(unwrapDurableEntry(T, entryKey(P), Payload), EnvelopeResult::Ok);
    writeFileRaw(P, Payload); // what a pre-envelope version wrote
    break;
  }
  }
}

/// The verdict of `add x0, x0, #1; ret` against "x <u 100 on entry, so
/// x0 <=u Bound on return": true for Bound = 100.  The specs keep their
/// names whatever the bound, so every bound shares one bundle key.
struct BoundProof {
  bool Ok = false;
  std::string Error;
  std::string Diag;
  smt::SolverCache *Store = nullptr;
  seplogic::ProofStats Stats;
};

BoundProof proveBound(uint64_t Bound, smt::SolverCache *Store) {
  namespace e = arch::aarch64::enc;
  Verifier V(frontend::aarch64(), {nullptr, Store, {}});
  V.addCode({{0x1000, e::addImm(0, 0, 1)}, {0x1004, e::ret()}});
  std::string Err;
  EXPECT_TRUE(V.generateTraces(Err)) << Err;
  smt::TermBuilder &TB = V.builder();
  seplogic::Spec Post = V.makeSpec("post");
  const smt::Term *Out = Post.evar(64, "out");
  Post.reg(Reg("R0"), Out).pure(TB.bvUle(Out, TB.constBV(64, Bound)));
  seplogic::Spec Entry = V.makeSpec("entry");
  const smt::Term *X = Entry.evar(64, "x");
  const smt::Term *R = Entry.evar(64, "r");
  Entry.reg(Reg("R0"), X)
      .reg(Reg("R30"), R)
      .pure(TB.bvUlt(X, TB.constBV(64, 100)))
      .instrPre(R, &Post, {});
  V.engine().registerSpec(0x1000, &Entry);
  BoundProof P;
  P.Ok = V.engine().verifyAll();
  P.Error = V.engine().error();
  P.Diag = V.engine().diag().render();
  P.Stats = V.engine().stats();
  return P;
}

// A spec edited under the same names opens the same bundle.  Its stale
// answers are keyed by other goal sets, so they only miss: the verdict and
// the diagnostic are those of a storeless run.  The answers the stale
// bundle held went into the store's memory, so the original spec then
// re-verifies from the store without a miss.
TEST(SideCondTest, StaleBundleOnlyMisses) {
  TempDir Tmp;
  SideCondConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  BoundProof Storeless = proveBound(99, nullptr);
  ASSERT_FALSE(Storeless.Ok);
  {
    SideCondStore Cold(Cfg);
    ASSERT_TRUE(proveBound(100, &Cold).Ok);
    EXPECT_GT(Cold.stats().Misses, 0u);
    EXPECT_EQ(Cold.stats().DiskWrites, 1u);
  }

  SideCondStore Store(Cfg);
  BoundProof Stale = proveBound(99, &Store);
  EXPECT_FALSE(Stale.Ok);
  EXPECT_EQ(Stale.Error, Storeless.Error);
  EXPECT_EQ(Stale.Diag, Storeless.Diag);
  SideCondStats After = Store.stats();
  EXPECT_GT(After.Misses, 0u);
  EXPECT_EQ(After.Rejected, 0u);
  EXPECT_EQ(After.DiskWrites, 1u); // the stale proof republished

  BoundProof Again = proveBound(100, &Store);
  EXPECT_TRUE(Again.Ok) << Again.Error;
  EXPECT_EQ(Again.Stats.SolverSatCalls, 0u);
  EXPECT_GT(Again.Stats.SolverStoreHits, 0u);
  EXPECT_EQ(Store.stats().Misses, After.Misses);
}

/// A study row without its timings.
std::string untimedRow(const frontend::CaseResult &R) {
  std::ostringstream OS;
  OS << R.Name << " ok=" << R.Ok << " err=" << R.Error
     << " diag=" << R.D.render() << " asm=" << R.AsmInstrs
     << " itl=" << R.ItlEvents << " events=" << R.Proof.EventsProcessed
     << " paths=" << R.Proof.PathsVerified
     << " entailments=" << R.Proof.Entailments
     << " queries=" << R.Proof.SolverQueries;
  return OS.str();
}

// A torn bundle is a quarantined miss: the proof solves its goals again,
// the row equals the fault-free one, and the republished bundle serves the
// next run.
TEST(SideCondTest, TornBundleIsAQuarantinedMiss) {
  TempDir Tmp;
  SideCondConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  const frontend::StudyEntry *Uart = frontend::findCaseStudy("uart");
  ASSERT_NE(Uart, nullptr);
  frontend::CaseResult Clean;
  {
    SideCondStore Store(Cfg);
    Clean = Uart->Run({nullptr, &Store, {}});
    ASSERT_TRUE(Clean.Ok) << Clean.Error;
  }
  auto Files = entryFiles(Tmp.Path);
  ASSERT_EQ(Files.size(), 1u);
  corruptFile(Files[0], 1); // one flipped payload bit

  SideCondStore Store(Cfg);
  frontend::CaseResult Torn = Uart->Run({nullptr, &Store, {}});
  EXPECT_EQ(untimedRow(Torn), untimedRow(Clean));
  EXPECT_EQ(Torn.Proof.SolverStoreHits, 0u);
  SideCondStats St = Store.stats();
  EXPECT_EQ(St.Quarantined, 1u);
  EXPECT_EQ(St.DiskHits, 0u);
  EXPECT_EQ(St.DiskWrites, 1u);
  EXPECT_TRUE(std::filesystem::exists(Tmp.Path / "quarantine" /
                                      Files[0].filename()));

  SideCondStore Warm(Cfg);
  frontend::CaseResult Healed = Uart->Run({nullptr, &Warm, {}});
  EXPECT_EQ(untimedRow(Healed), untimedRow(Clean));
  EXPECT_EQ(Warm.stats().Misses, 0u);
  EXPECT_EQ(Warm.stats().DiskHits, St.Misses);
}

/// Drives a TraceCache through one fixed key; Value picks one of two
/// distinguishable entries.
struct TraceStoreOps {
  using Store = TraceCache;
  static constexpr const char *Name = "TraceCache";
  static constexpr bool LastWriterWins = false;
  static Fingerprint key(unsigned N = 0) {
    return Fingerprinter().str("contract-key").u64(N).digest();
  }
  static std::unique_ptr<TraceCache> open(const std::filesystem::path &Dir) {
    TraceCacheConfig Cfg;
    Cfg.Persist = true;
    Cfg.Dir = Dir.string();
    return std::make_unique<TraceCache>(Cfg);
  }
  static void put(TraceCache &S, const Fingerprint &K, unsigned Value) {
    CacheEntry E;
    E.TraceText = Value ? "(trace (cycle))" : "(trace)";
    E.Stats.Paths = 1;
    S.insert(K, E);
  }
  /// The value served for \p K, or -1 on a miss.
  static int get(TraceCache &S, const Fingerprint &K) {
    auto Hit = S.lookup(K);
    return Hit ? int(Hit->TraceText != "(trace)") : -1;
  }
};

/// The same operations on a SideCondStore: the bundle key stands in for
/// the key, one answer's verdict for the value.
struct SideCondStoreOps {
  using Store = SideCondStore;
  static constexpr const char *Name = "SideCondStore";
  /// Bundles are replaced on republication; trace entries are immutable.
  static constexpr bool LastWriterWins = true;
  static Fingerprint key(unsigned N = 0) {
    return Fingerprinter().str("contract-bundle").u64(N).digest();
  }
  /// The goal-set key of the one answer bundle \p K holds.
  static Fingerprint goals(const Fingerprint &K) {
    return Fingerprinter().str("contract-goals").fingerprint(K).digest();
  }
  static std::unique_ptr<SideCondStore>
  open(const std::filesystem::path &Dir) {
    SideCondConfig Cfg;
    Cfg.Persist = true;
    Cfg.Dir = Dir.string();
    return std::make_unique<SideCondStore>(Cfg);
  }
  static void put(SideCondStore &S, const Fingerprint &K, unsigned Value) {
    smt::SolverCache::CachedResult R;
    R.Sat = Value != 0;
    if (R.Sat)
      R.Model.emplace_back("x", 8u, BitVec(8, 42));
    putAnswer(S, K, goals(K), R);
  }
  static int get(SideCondStore &S, const Fingerprint &K) {
    auto Hit = getAnswer(S, K, goals(K));
    return Hit ? int(Hit->Sat) : -1;
  }
};

template <typename Ops> class DiskContractTest : public ::testing::Test {};

struct StoreOpsNames {
  template <typename Ops> static std::string GetName(int) {
    return Ops::Name;
  }
};

using StoreOpsTypes = ::testing::Types<TraceStoreOps, SideCondStoreOps>;
TYPED_TEST_SUITE(DiskContractTest, StoreOpsTypes, StoreOpsNames);

TYPED_TEST(DiskContractTest, CorruptFilesAreQuarantinedMisses) {
  using Ops = TypeParam;
  for (const CorruptionCase &TC : CorruptionMatrix) {
    TempDir Tmp;
    auto K = Ops::key();
    Ops::put(*Ops::open(Tmp.Path), K, 1);
    auto Files = entryFiles(Tmp.Path);
    ASSERT_EQ(Files.size(), 1u) << TC.What;
    corruptFile(Files[0], TC.Kind);

    auto S2 = Ops::open(Tmp.Path);
    EXPECT_EQ(Ops::get(*S2, K), -1) << TC.What; // miss, never garbage
    auto St = S2->stats();
    EXPECT_EQ(St.Misses, 1u) << TC.What;
    EXPECT_EQ(St.DiskHits, 0u) << TC.What;
    EXPECT_EQ(St.CorruptRemoved, 1u) << TC.What;
    EXPECT_EQ(St.Quarantined, 1u) << TC.What;
    auto Ds = S2->drainDiags();
    ASSERT_EQ(Ds.size(), 1u) << TC.What;
    EXPECT_EQ(Ds[0].Code, TC.Expect) << TC.What;
    EXPECT_TRUE(support::isInfrastructureError(Ds[0].Code)) << TC.What;
    EXPECT_TRUE(S2->drainDiags().empty()) << TC.What; // drain clears

    // The corpse moved under quarantine/ and the entry path is free, so the
    // next publish self-repairs the store.
    EXPECT_FALSE(std::filesystem::exists(Files[0])) << TC.What;
    EXPECT_TRUE(std::filesystem::exists(Tmp.Path / "quarantine" /
                                        Files[0].filename()))
        << TC.What;
    Ops::put(*S2, K, 1);
    EXPECT_EQ(Ops::get(*Ops::open(Tmp.Path), K), 1) << TC.What;
  }
}

TYPED_TEST(DiskContractTest, RepublishingFollowsTheStoreContract) {
  using Ops = TypeParam;
  TempDir Tmp;
  auto K = Ops::key();
  auto S1 = Ops::open(Tmp.Path);
  Ops::put(*S1, K, 1);
  EXPECT_EQ(S1->stats().DiskWrites, 1u);
  auto Files = entryFiles(Tmp.Path);
  ASSERT_EQ(Files.size(), 1u);
  std::string Bytes = readFileRaw(Files[0]);

  // A second writer with an empty memory publishes a different value under
  // the same key.  A trace entry already there wins, byte for byte; a
  // bundle is replaced (its answers are checked against their own keys,
  // so the last writer can only make later lookups hit or miss).
  auto S2 = Ops::open(Tmp.Path);
  Ops::put(*S2, K, 0);
  EXPECT_EQ(S2->stats().DiskWrites, Ops::LastWriterWins ? 1u : 0u);
  EXPECT_EQ(S2->stats().WriteFailures, 0u);
  EXPECT_EQ(entryFiles(Tmp.Path).size(), 1u);
  EXPECT_EQ(readFileRaw(Files[0]) == Bytes, !Ops::LastWriterWins);
  EXPECT_EQ(Ops::get(*Ops::open(Tmp.Path), K), Ops::LastWriterWins ? 0 : 1);
}

TYPED_TEST(DiskContractTest, DiskDisabledReadsAndWritesNothing) {
  using Ops = TypeParam;
  TempDir Tmp;
  auto K = Ops::key();
  Ops::put(*Ops::open(Tmp.Path), K, 1);
  ASSERT_EQ(entryFiles(Tmp.Path).size(), 1u);

  auto S = Ops::open(Tmp.Path);
  S->setDiskDisabled(true);
  EXPECT_TRUE(S->diskDisabled());
  EXPECT_EQ(Ops::get(*S, K), -1); // the entry on disk is not read
  auto Other = Ops::key(1);
  Ops::put(*S, Other, 1); // ... and nothing is published
  EXPECT_EQ(entryFiles(Tmp.Path).size(), 1u);
  EXPECT_EQ(Ops::get(*S, Other), 1); // memory keeps serving
  auto St = S->stats();
  EXPECT_EQ(St.DiskHits, 0u);
  EXPECT_EQ(St.DiskWrites, 0u);
  EXPECT_EQ(St.WriteFailures, 0u);

  // Re-enabled: reads and publishes resume.
  S->setDiskDisabled(false);
  EXPECT_EQ(Ops::get(*S, K), 1);
  EXPECT_EQ(S->stats().DiskHits, 1u);
  auto Third = Ops::key(2);
  Ops::put(*S, Third, 0);
  EXPECT_EQ(S->stats().DiskWrites, 1u);
  EXPECT_EQ(entryFiles(Tmp.Path).size(), 2u);
  EXPECT_TRUE(S->drainDiags().empty());
}

TYPED_TEST(DiskContractTest, DiskFullCountsAWriteFailureWithoutDiag) {
  using Ops = TypeParam;
  TempDir Tmp;
  auto S = Ops::open(Tmp.Path);
  support::FaultInjector FI;
  FI.failFirst(support::FaultSite::DiskFull, 1);
  support::FaultInjector *Saved = support::FaultInjector::active();
  support::FaultInjector::setActive(&FI);
  Ops::put(*S, Ops::key(), 1);
  support::FaultInjector::setActive(Saved);

  auto St = S->stats();
  EXPECT_EQ(St.WriteFailures, 1u);
  EXPECT_EQ(St.DiskWrites, 0u);
  EXPECT_TRUE(entryFiles(Tmp.Path).empty());
  // The directory is writable: a full device is not reported as one that
  // is not, so the one-time unwritable-directory Diag stays silent.
  EXPECT_TRUE(S->drainDiags().empty());
  EXPECT_EQ(Ops::get(*S, Ops::key()), 1); // still served from memory
}

// Hostile numbers behind a VALID checksum: the envelope only protects
// against accidental corruption, so a hand-written or fuzzed entry can
// carry non-numeric, negative, or 2^64-scale atoms in any numeric field.
// These used to flow into std::stoul and throw straight through lookup()
// (crashing the caller — in the daemon, a worker thread); every one must
// instead be a parse error -> attributed miss + quarantine.

constexpr const char *HostileNumbers[] = {
    "abc",                  // non-numeric
    "-1",                   // negative
    "18446744073709551616", // 2^64: out_of_range for any 64-bit parse
    "4294967296",           // 2^32: overflows the unsigned stats fields
    "0x20",                 // digits only; radix prefixes are not numbers
};

/// Rewrites the single entry under \p Root by applying \p Mutate to its
/// (checksum-verified) payload and re-wrapping, so the tampered file still
/// passes the envelope — only the semantic parser can catch it.
void rewriteEntryPayload(
    const std::filesystem::path &Root,
    const std::function<void(std::string &)> &Mutate) {
  auto Files = entryFiles(Root);
  ASSERT_EQ(Files.size(), 1u);
  std::string Payload;
  Fingerprint K = entryKey(Files[0]);
  ASSERT_EQ(unwrapDurableEntry(readFileRaw(Files[0]), K, Payload),
            EnvelopeResult::Ok);
  Mutate(Payload);
  writeFileRaw(Files[0], wrapDurableEntry(K, Payload));
}

TEST(CorruptionMatrixTest, TraceStoreHostileNumbersMissNeverThrow) {
  for (const char *H : HostileNumbers) {
    for (bool InStats : {true, false}) {
      TempDir Tmp;
      TraceCacheConfig Cfg;
      Cfg.Persist = true;
      Cfg.Dir = Tmp.Path.string();
      Fingerprint K = Fingerprinter().str("hostile-num-key").digest();
      CacheEntry E;
      E.TraceText = "(trace)";
      E.OpcodeVars.emplace_back("v0", 32u);
      E.Stats.Paths = 7;
      E.Stats.PrunedBranches = 3;
      E.Stats.SolverQueries = 11;
      E.Stats.Events = 19;
      {
        TraceCache C(Cfg);
        C.insert(K, E);
      }
      rewriteEntryPayload(Tmp.Path, [&](std::string &P) {
        std::string From = InStats ? "(stats 7" : "(|v0| 32)";
        std::string To = InStats ? std::string("(stats ") + H
                                 : std::string("(|v0| ") + H + ")";
        size_t At = P.find(From);
        ASSERT_NE(At, std::string::npos);
        P.replace(At, From.size(), To);
      });

      TraceCache C2(Cfg);
      // The pre-fix code threw std::invalid_argument / out_of_range here.
      EXPECT_FALSE(C2.lookup(K) != nullptr) << H;
      EXPECT_EQ(C2.stats().Quarantined, 1u) << H;
      auto Ds = C2.drainDiags();
      ASSERT_EQ(Ds.size(), 1u) << H;
      EXPECT_EQ(Ds[0].Code, support::ErrorCode::CorruptCacheEntry) << H;
      // The diagnostic names the offending atom, so a quarantined corpse
      // is attributable without re-reading it.
      EXPECT_NE(Ds[0].Message.find(H), std::string::npos) << Ds[0].Message;
    }
  }
}

TEST(CorruptionMatrixTest, SideCondStoreHostileWidthsMissNeverThrow) {
  for (const char *H : HostileNumbers) {
    TempDir Tmp;
    smt::SolverCache::CachedResult R;
    R.Sat = true;
    R.Model.emplace_back("x", 8u, BitVec(8, 42));
    Fingerprint B = bundleKey("hostile-width-bundle");
    Fingerprint GK = Fingerprinter().str("hostile-width-goal").digest();
    putAnswer(*SideCondStoreOps::open(Tmp.Path), B, GK, R);
    rewriteEntryPayload(Tmp.Path, [&](std::string &P) {
      size_t At = P.find("(|x| 8 ");
      ASSERT_NE(At, std::string::npos);
      P.replace(At, 7, std::string("(|x| ") + H + " ");
    });

    auto S2 = SideCondStoreOps::open(Tmp.Path);
    EXPECT_FALSE(getAnswer(*S2, B, GK).has_value()) << H;
    EXPECT_EQ(S2->stats().Quarantined, 1u) << H;
    auto Ds = S2->drainDiags();
    ASSERT_EQ(Ds.size(), 1u) << H;
    EXPECT_EQ(Ds[0].Code, support::ErrorCode::CorruptCacheEntry) << H;
  }
}

TEST(CorruptionMatrixTest, StaleTempFilesNeverServeReadsAndScrubReaps) {
  TempDir Tmp;
  TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  Fingerprint K = Fingerprinter().str("live-entry").digest();
  CacheEntry E;
  E.TraceText = "(trace)";
  {
    TraceCache C(Cfg);
    C.insert(K, E);
  }
  auto Files = entryFiles(Tmp.Path);
  ASSERT_EQ(Files.size(), 1u);
  // A crash between create and rename leaves "<entry>.tmp.<pid>.<n>".
  std::filesystem::path Stale = Files[0];
  Stale += ".tmp.12345.0";
  writeFileRaw(Stale, "half-written garbage");

  // Readers never even look at temps: full hit, no diagnostics.
  TraceCache C2(Cfg);
  ASSERT_TRUE(C2.lookup(K) != nullptr);
  EXPECT_EQ(C2.stats().CorruptRemoved, 0u);
  EXPECT_TRUE(C2.drainDiags().empty());

  // Scrub reaps the temp and leaves the live entry alone.
  ScrubOptions O;
  O.Dir = Tmp.Path.string();
  ScrubReport Rep = scrubStore(O);
  EXPECT_EQ(Rep.TempsRemoved, 1u);
  EXPECT_EQ(Rep.OkEntries, 1u);
  EXPECT_EQ(Rep.Quarantined, 0u);
  EXPECT_GT(Rep.BytesReclaimed, 0u);
  EXPECT_FALSE(std::filesystem::exists(Stale));
  EXPECT_TRUE(std::filesystem::exists(Files[0]));
}

//===----------------------------------------------------------------------===//
// Run journal.
//===----------------------------------------------------------------------===//

Fingerprint jkey(const char *S) { return Fingerprinter().str(S).digest(); }

TEST(RunJournalTest, AppendsSurviveReopenAndLastRecordWins) {
  TempDir Tmp;
  std::string Path = (Tmp.Path / "suite.journal").string();
  {
    RunJournal J(Path);
    ASSERT_TRUE(J.open());
    EXPECT_EQ(J.records(), 0u);
    EXPECT_TRUE(J.append(jkey("a"), "row one"));
    EXPECT_TRUE(J.append(jkey("b"), "row two"));
    EXPECT_TRUE(J.append(jkey("a"), "row one (rewrite)"));
    EXPECT_EQ(J.records(), 2u);
  }
  RunJournal J2(Path);
  ASSERT_TRUE(J2.open());
  EXPECT_EQ(J2.records(), 2u);
  EXPECT_EQ(J2.tornBytesDiscarded(), 0u);
  ASSERT_NE(J2.find(jkey("a")), nullptr);
  EXPECT_EQ(*J2.find(jkey("a")), "row one (rewrite)"); // last record wins

  // The bytes on disk are pinned: existing journals keep resuming.
  EXPECT_EQ(RunJournal::encodeRecord(
                Fingerprint{0x0123456789abcdefull, 0xfedcba9876543210ull},
                "row one"),
            "(islaris-journal 2 0123456789abcdeffedcba9876543210 7 "
            "d6b547c17a7ec1f3)\nrow one\n");
  ASSERT_NE(J2.find(jkey("b")), nullptr);
  EXPECT_EQ(*J2.find(jkey("b")), "row two");
  EXPECT_EQ(J2.find(jkey("c")), nullptr);
  EXPECT_TRUE(J2.drainDiags().empty());
}

TEST(RunJournalTest, PayloadsAreBinarySafe) {
  TempDir Tmp;
  std::string Path = (Tmp.Path / "suite.journal").string();
  // A payload that *contains* a well-formed journal record must not confuse
  // the recovery scan: records are length-directed, not delimiter-directed.
  std::string Tricky =
      "line one\n" + RunJournal::encodeRecord(jkey("inner"), "decoy") +
      "(islaris-journal 2 trailing garbage";
  {
    RunJournal J(Path);
    ASSERT_TRUE(J.open());
    EXPECT_TRUE(J.append(jkey("t"), Tricky));
  }
  RunJournal J2(Path);
  ASSERT_TRUE(J2.open());
  EXPECT_EQ(J2.records(), 1u);
  EXPECT_EQ(J2.tornBytesDiscarded(), 0u);
  ASSERT_NE(J2.find(jkey("t")), nullptr);
  EXPECT_EQ(*J2.find(jkey("t")), Tricky);
  EXPECT_EQ(J2.find(jkey("inner")), nullptr);
}

TEST(RunJournalTest, TornTailIsTruncatedAndAppendsContinue) {
  std::string Full = RunJournal::encodeRecord(jkey("c"), "gamma");
  // A crash mid-append leaves half a record at the tail; a hostile length
  // (20 digits overflow, 2^64-1 would wrap the payload offset) is a torn
  // tail too, never an out-of-bounds read.
  std::string Hostile = "(islaris-journal 2 " + jkey("c").toHex() + " ";
  // A record written before records were summed by words (version 1,
  // byte-wise FNV-1a) is a torn tail as well, so --resume re-runs its job.
  char V1Sum[17];
  std::snprintf(V1Sum, sizeof V1Sum, "%016llx",
                (unsigned long long)fnv1a64("gamma"));
  std::string V1 = "(islaris-journal 1 " + jkey("c").toHex() + " 5 " + V1Sum +
                   ")\ngamma\n";
  for (std::string Torn :
       {Full.substr(0, Full.size() / 2),
        Hostile + "99999999999999999999 229176bd1f6ba96a)\ngamma\n",
        Hostile + "18446744073709551615 229176bd1f6ba96a)\ngamma\n", V1}) {
    TempDir Tmp;
    std::string Path = (Tmp.Path / "suite.journal").string();
    {
      RunJournal J(Path);
      ASSERT_TRUE(J.open());
      EXPECT_TRUE(J.append(jkey("a"), "alpha"));
      EXPECT_TRUE(J.append(jkey("b"), "beta"));
    }
    {
      std::ofstream Out(Path, std::ios::binary | std::ios::app);
      Out.write(Torn.data(), std::streamsize(Torn.size()));
    }
    RunJournal J2(Path);
    ASSERT_TRUE(J2.open());
    EXPECT_EQ(J2.records(), 2u) << Torn; // the two durable records survive
    EXPECT_EQ(J2.tornBytesDiscarded(), Torn.size());
    auto Ds = J2.drainDiags();
    ASSERT_EQ(Ds.size(), 1u);
    EXPECT_EQ(Ds[0].Code, support::ErrorCode::ChecksumMismatch);
    EXPECT_EQ(Ds[0].Sev, support::Severity::Warning);
    EXPECT_EQ(J2.find(jkey("c")), nullptr); // the torn job just re-runs

    // The truncation restored a clean tail: appends and reopens continue.
    EXPECT_TRUE(J2.append(jkey("c"), "gamma"));
    RunJournal J3(Path);
    ASSERT_TRUE(J3.open());
    EXPECT_EQ(J3.records(), 3u);
    EXPECT_EQ(J3.tornBytesDiscarded(), 0u);
    ASSERT_NE(J3.find(jkey("c")), nullptr);
    EXPECT_EQ(*J3.find(jkey("c")), "gamma");
  }
}

TEST(RunJournalTest, UnopenablePathFailsCleanly) {
  TempDir Tmp;
  std::filesystem::create_directories(Tmp.Path);
  std::filesystem::path Blocker = Tmp.Path / "blocker";
  writeFileRaw(Blocker, "a regular file where a directory must go");
  RunJournal J((Blocker / "suite.journal").string());
  EXPECT_FALSE(J.open());
  EXPECT_FALSE(J.append(jkey("a"), "row")); // disabled, not crashed
  auto Ds = J.drainDiags();
  ASSERT_GE(Ds.size(), 1u);
  EXPECT_EQ(Ds.back().Code, support::ErrorCode::IoError);
}

//===----------------------------------------------------------------------===//
// Scrub and compaction.
//===----------------------------------------------------------------------===//

TEST(ScrubTest, QuarantinesMisplacedEntries) {
  TempDir Tmp;
  TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  Fingerprint Flat = Fingerprinter().str("flat-entry").digest();
  Fingerprint Stray = Fingerprinter().str("stray-entry").digest();
  Fingerprint Live = Fingerprinter().str("live-entry").digest();
  CacheEntry E;
  E.TraceText = "(trace)";
  {
    TraceCache C(Cfg);
    C.insert(Flat, E);
    C.insert(Stray, E);
    C.insert(Live, E);
  }
  // Two correctly enveloped entries outside their shards: one flat at the
  // store root (the pre-sharding layout), one in another key's shard.
  // Readers only ever open the sharded path, so neither can serve a read.
  auto Sharded = [&](const Fingerprint &K) {
    std::string Hex = K.toHex();
    return Tmp.Path / Hex.substr(0, 2) / (Hex + ".itc");
  };
  std::filesystem::path FlatPath = Tmp.Path / (Flat.toHex() + ".itc");
  std::filesystem::rename(Sharded(Flat), FlatPath);
  std::string WrongShard = Stray.toHex().substr(0, 2) == "00" ? "01" : "00";
  std::filesystem::path StrayPath =
      Tmp.Path / WrongShard / (Stray.toHex() + ".itc");
  std::filesystem::create_directories(StrayPath.parent_path());
  std::filesystem::rename(Sharded(Stray), StrayPath);

  ScrubOptions O;
  O.Dir = Tmp.Path.string();
  ScrubReport Rep = scrubStore(O);
  EXPECT_EQ(Rep.Quarantined, 2u);
  EXPECT_EQ(Rep.OkEntries, 1u);
  EXPECT_FALSE(Rep.clean());
  ASSERT_EQ(Rep.Diags.size(), 2u);
  for (const support::Diag &D : Rep.Diags) {
    EXPECT_EQ(D.Code, support::ErrorCode::CorruptCacheEntry);
    EXPECT_NE(D.Message.find("misplaced"), std::string::npos) << D.Message;
  }
  EXPECT_FALSE(std::filesystem::exists(FlatPath));
  EXPECT_FALSE(std::filesystem::exists(StrayPath));
  EXPECT_TRUE(std::filesystem::exists(Tmp.Path / "quarantine" /
                                      FlatPath.filename()));
  EXPECT_TRUE(std::filesystem::exists(Tmp.Path / "quarantine" /
                                      StrayPath.filename()));
  EXPECT_TRUE(std::filesystem::exists(Sharded(Live)));

  // A second pass is a fixpoint.
  ScrubReport Rep2 = scrubStore(O);
  EXPECT_EQ(Rep2.Quarantined, 0u);
  EXPECT_EQ(Rep2.OkEntries, 1u);
  EXPECT_TRUE(Rep2.clean());
}

TEST(ScrubTest, QuarantinesCorruptAndMisnamedEntries) {
  TempDir Tmp;
  TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  Fingerprint K = Fingerprinter().str("scrub-corrupt").digest();
  CacheEntry E;
  E.TraceText = "(trace)";
  {
    TraceCache C(Cfg);
    C.insert(K, E);
  }
  auto Files = entryFiles(Tmp.Path);
  ASSERT_EQ(Files.size(), 1u);
  corruptFile(Files[0], 1); // bit flip

  // And an entry whose envelope verifies but whose payload does not embed
  // the fingerprint its filename promises (renamed / cross-linked file):
  // serving it would answer the wrong key.
  std::string OtherHex(32, 'f');
  std::filesystem::path Misnamed = Tmp.Path / "ff" / (OtherHex + ".itc");
  std::filesystem::create_directories(Misnamed.parent_path());
  writeFileRaw(Misnamed,
               wrapDurableEntry(K, "(islaris-trace-cache 1 " + K.toHex() +
                                       " (opcode-vars) (stats 1 0 0 0))\n"
                                       "(trace)\n"));

  ScrubOptions O;
  O.Dir = Tmp.Path.string();
  ScrubReport Rep = scrubStore(O);
  EXPECT_EQ(Rep.Quarantined, 2u);
  EXPECT_EQ(Rep.OkEntries, 0u);
  EXPECT_FALSE(Rep.clean());
  EXPECT_FALSE(std::filesystem::exists(Files[0]));
  EXPECT_FALSE(std::filesystem::exists(Misnamed));
  EXPECT_TRUE(std::filesystem::exists(Tmp.Path / "quarantine" /
                                      Files[0].filename()));
  EXPECT_TRUE(std::filesystem::exists(Tmp.Path / "quarantine" /
                                      (OtherHex + ".itc")));
}

// Scrub checks side-condition bundles the way a reader does: a bundle
// names its own key in its header, so one that embeds another bundle's key
// (or only a goal-set key inside) is misnamed, and a torn one is corrupt.
TEST(ScrubTest, VerifiesAndQuarantinesBundles) {
  TempDir Tmp;
  auto S = SideCondStoreOps::open(Tmp.Path);
  smt::SolverCache::CachedResult R;
  R.Sat = true;
  R.Model.emplace_back("x", 8u, BitVec(8, 42));
  Fingerprint Good = bundleKey("scrub-good"), Torn = bundleKey("scrub-torn");
  putAnswer(*S, Good, Fingerprinter().str("g1").digest(), R);
  putAnswer(*S, Torn, Fingerprinter().str("g2").digest(), R);
  std::string TornHex = Torn.toHex();
  std::filesystem::path TornPath =
      Tmp.Path / TornHex.substr(0, 2) / (TornHex + ".scc");
  corruptFile(TornPath, 1);
  // A bundle filed under the key of one of its own answers.
  Fingerprint Inner = Fingerprinter().str("inner").digest();
  SideCondStore::Answers A;
  A[Inner] = R;
  std::string InnerHex = Inner.toHex();
  std::filesystem::path Misnamed =
      Tmp.Path / InnerHex.substr(0, 2) / (InnerHex + ".scc");
  std::filesystem::create_directories(Misnamed.parent_path());
  writeFileRaw(Misnamed,
               wrapDurableEntry(Good, SideCondStore::serializeBundle(Good, A)));

  ScrubOptions O;
  O.Dir = Tmp.Path.string();
  ScrubReport Rep = scrubStore(O);
  EXPECT_EQ(Rep.OkEntries, 1u);
  EXPECT_EQ(Rep.Quarantined, 2u);
  EXPECT_FALSE(std::filesystem::exists(TornPath));
  EXPECT_FALSE(std::filesystem::exists(Misnamed));
  EXPECT_TRUE(getAnswer(*SideCondStoreOps::open(Tmp.Path), Good,
                        Fingerprinter().str("g1").digest())
                  .has_value());
}

TEST(ScrubTest, CompactionEvictsLruByMtimeUnderBudget) {
  TempDir Tmp;
  TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  std::vector<std::filesystem::path> Paths;
  uint64_t Total = 0;
  {
    TraceCache C(Cfg);
    auto Now = std::filesystem::file_time_type::clock::now();
    for (int I = 0; I < 4; ++I) {
      Fingerprint K = Fingerprinter().str("evict").u64(uint64_t(I)).digest();
      CacheEntry E;
      E.TraceText = "(trace)";
      C.insert(K, E);
      std::string Hex = K.toHex();
      std::filesystem::path P =
          Tmp.Path / Hex.substr(0, 2) / (Hex + ".itc");
      ASSERT_TRUE(std::filesystem::exists(P)) << I;
      // Entry I was last touched (4 - I) days ago: index 0 is the oldest.
      std::filesystem::last_write_time(P,
                                       Now - std::chrono::hours(24 * (4 - I)));
      Paths.push_back(P);
      Total += std::filesystem::file_size(P);
    }
  }

  ScrubOptions O;
  O.Dir = Tmp.Path.string();
  O.MaxBytes = Total - std::filesystem::file_size(Paths[0]) -
               std::filesystem::file_size(Paths[1]);
  ScrubReport Rep = scrubStore(O);
  EXPECT_EQ(Rep.Evicted, 2u);
  EXPECT_LE(Rep.BytesInUse, O.MaxBytes);
  // Oldest-first: the two stalest entries go, the two freshest stay.
  EXPECT_FALSE(std::filesystem::exists(Paths[0]));
  EXPECT_FALSE(std::filesystem::exists(Paths[1]));
  EXPECT_TRUE(std::filesystem::exists(Paths[2]));
  EXPECT_TRUE(std::filesystem::exists(Paths[3]));
}

TEST(ScrubTest, DryRunReportsWithoutMutating) {
  TempDir Tmp;
  TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  Fingerprint Good = Fingerprinter().str("dry-good").digest();
  Fingerprint Bad = Fingerprinter().str("dry-bad").digest();
  CacheEntry E;
  E.TraceText = "(trace)";
  {
    TraceCache C(Cfg);
    C.insert(Good, E);
    C.insert(Bad, E);
  }
  std::string BadHex = Bad.toHex();
  std::filesystem::path BadPath =
      Tmp.Path / BadHex.substr(0, 2) / (BadHex + ".itc");
  corruptFile(BadPath, 1);
  std::filesystem::path Stale = BadPath;
  Stale += ".tmp.999.1";
  writeFileRaw(Stale, "stale");
  // A well-formed entry placed flat at the root, outside its shard.
  Fingerprint Misplaced = Fingerprinter().str("dry-misplaced").digest();
  std::filesystem::path Flat = Tmp.Path / (Misplaced.toHex() + ".itc");
  writeFileRaw(Flat,
               wrapDurableEntry(Misplaced,
                                TraceCache::serializeEntry(Misplaced, E)));

  ScrubOptions Dry;
  Dry.Dir = Tmp.Path.string();
  Dry.DryRun = true;
  ScrubReport Rep = scrubStore(Dry);
  EXPECT_EQ(Rep.TempsRemoved, 1u);
  EXPECT_EQ(Rep.Quarantined, 2u); // the corrupt one and the misplaced one
  EXPECT_EQ(Rep.OkEntries, 1u);
  // ...but nothing moved: same corrupt bytes, same temp, same flat file.
  EXPECT_TRUE(std::filesystem::exists(BadPath));
  EXPECT_TRUE(std::filesystem::exists(Stale));
  EXPECT_TRUE(std::filesystem::exists(Flat));
  EXPECT_FALSE(std::filesystem::exists(Tmp.Path / "quarantine"));

  // The wet pass then performs exactly what the dry pass promised.
  Dry.DryRun = false;
  ScrubReport Wet = scrubStore(Dry);
  EXPECT_EQ(Wet.TempsRemoved, 1u);
  EXPECT_EQ(Wet.Quarantined, 2u);
  EXPECT_EQ(Wet.OkEntries, 1u);
  EXPECT_FALSE(std::filesystem::exists(BadPath));
  EXPECT_FALSE(std::filesystem::exists(Stale));
  EXPECT_FALSE(std::filesystem::exists(Flat));
  EXPECT_TRUE(std::filesystem::exists(Tmp.Path / "quarantine"));
}

TEST(ScrubTest, NestedSiblingStoreIsNotOursToQuarantine) {
  // cachectl scrubs the trace store at the root with the side-condition
  // store nested at <root>/sidecond.  The trace-store pass must not
  // descend into it: its entries would look misplaced relative to the
  // trace root and a wet scrub would quarantine them — wiping the store.
  TempDir Tmp;
  TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  Fingerprint K = Fingerprinter().str("nested-trace").digest();
  CacheEntry E;
  E.TraceText = "(trace)";
  {
    TraceCache C(Cfg);
    C.insert(K, E);
  }
  Fingerprint SK = Fingerprinter().str("nested-sidecond").digest();
  std::string SKHex = SK.toHex();
  std::filesystem::path Nested =
      Tmp.Path / "sidecond" / SKHex.substr(0, 2) / (SKHex + ".scc");
  std::filesystem::create_directories(Nested.parent_path());
  writeFileRaw(Nested,
               wrapDurableEntry(SK, SideCondStore::serializeBundle(SK, {})));

  ScrubOptions SO;
  SO.Dir = Tmp.Path.string();
  ScrubReport Rep = scrubStore(SO);
  EXPECT_EQ(Rep.FilesScanned, 1u); // the trace entry only
  EXPECT_EQ(Rep.OkEntries, 1u);
  EXPECT_EQ(Rep.Quarantined, 0u);
  EXPECT_TRUE(Rep.clean());
  EXPECT_TRUE(std::filesystem::exists(Nested)); // untouched, in place

  // Scrubbing the nested store by its own root still sees its entry.
  SO.Dir = (Tmp.Path / "sidecond").string();
  ScrubReport SRep = scrubStore(SO);
  EXPECT_EQ(SRep.OkEntries, 1u);
  EXPECT_TRUE(std::filesystem::exists(Nested));
}

//===----------------------------------------------------------------------===//
// Suite journal: codec round-trip and resumable runs.
//===----------------------------------------------------------------------===//

TEST(SuiteJournalTest, CaseResultCodecRoundTrips) {
  frontend::CaseResult R;
  R.Name = "pkvm handler (with spaces)";
  R.Isa = "aarch64";
  R.Ok = false;
  R.Error = "witness: (parens) 12:34\nsecond line";
  R.D = support::Diag::error(support::ErrorCode::JobException, "suite",
                             R.Error);
  R.AsmInstrs = 17;
  R.ItlEvents = 321;
  R.SpecSize = 9;
  R.Hints = 3;
  R.IslaSeconds = 0.1; // not exactly representable in decimal
  R.TracesExecuted = 5;
  R.CacheHits = 12;
  R.Deduped = 2;
  R.IslaMemoHits = 1;
  R.IslaStmts = 1234567;
  R.IslaStmtsSkipped = 7;
  R.HelperMemoHits = 8;
  R.Retries = 1;
  R.Quarantined = 1;
  R.Proof.EventsProcessed = 1000;
  R.Proof.PathsVerified = 33;
  R.Proof.Entailments = 44;
  R.Proof.SolverQueries = 55;
  R.Proof.TotalSeconds = 1.0 / 3.0;
  R.Proof.SideCondSeconds = 2.5e-7;

  std::string Enc = frontend::encodeCaseResult(R);
  frontend::CaseResult Out;
  ASSERT_TRUE(frontend::decodeCaseResult(Enc, Out));
  EXPECT_EQ(Out.Name, R.Name);
  EXPECT_EQ(Out.Isa, R.Isa);
  EXPECT_EQ(Out.Ok, R.Ok);
  EXPECT_EQ(Out.Error, R.Error);
  EXPECT_EQ(Out.D.Code, R.D.Code);
  EXPECT_EQ(Out.D.Stage, R.D.Stage);
  EXPECT_EQ(Out.D.Message, R.D.Message);
  EXPECT_EQ(Out.AsmInstrs, R.AsmInstrs);
  EXPECT_EQ(Out.ItlEvents, R.ItlEvents);
  EXPECT_EQ(Out.SpecSize, R.SpecSize);
  EXPECT_EQ(Out.Hints, R.Hints);
  EXPECT_EQ(Out.IslaSeconds, R.IslaSeconds); // hexfloat: bit-exact
  EXPECT_EQ(Out.TracesExecuted, R.TracesExecuted);
  EXPECT_EQ(Out.CacheHits, R.CacheHits);
  EXPECT_EQ(Out.Deduped, R.Deduped);
  EXPECT_EQ(Out.IslaStmts, R.IslaStmts);
  EXPECT_EQ(Out.Retries, R.Retries);
  EXPECT_EQ(Out.Quarantined, R.Quarantined);
  EXPECT_EQ(Out.Proof.EventsProcessed, R.Proof.EventsProcessed);
  EXPECT_EQ(Out.Proof.PathsVerified, R.Proof.PathsVerified);
  EXPECT_EQ(Out.Proof.Entailments, R.Proof.Entailments);
  EXPECT_EQ(Out.Proof.SolverQueries, R.Proof.SolverQueries);
  EXPECT_EQ(Out.Proof.TotalSeconds, R.Proof.TotalSeconds);
  EXPECT_EQ(Out.Proof.SideCondSeconds, R.Proof.SideCondSeconds);

  // Version and truncation failures are detected, not misdecoded.
  std::string BadVer = Enc;
  BadVer[5] = '9'; // "case 9 " — an unknown codec version
  frontend::CaseResult Junk;
  EXPECT_FALSE(frontend::decodeCaseResult(BadVer, Junk));
  // Rows of the older codec versions, which carried the executor's store
  // hits (3) and the merge-engine counters (2), are rejected too: a
  // resumed run re-verifies them.
  ASSERT_EQ(Enc.rfind("case 4 ", 0), 0u);
  for (char Old : {'3', '2'}) {
    std::string OldVer = Enc;
    OldVer[5] = Old;
    EXPECT_FALSE(frontend::decodeCaseResult(OldVer, Junk)) << Old;
  }
  EXPECT_FALSE(frontend::decodeCaseResult(Enc.substr(0, Enc.size() / 2),
                                          Junk));
  EXPECT_FALSE(frontend::decodeCaseResult("", Junk));
}

TEST(SuiteJournalTest, ResumedSuiteRestoresRowsBitIdentical) {
  TempDir Tmp;
  frontend::SuiteOptions Opts;
  Opts.Threads = 1;
  Opts.JournalPath = (Tmp.Path / "suite.journal").string();
  std::vector<frontend::CaseResult> Cold =
      frontend::runAllCaseStudies(Opts);
  for (const frontend::CaseResult &R : Cold)
    EXPECT_FALSE(R.Resumed) << R.Name;
  EXPECT_EQ(frontend::summarize(Cold).JobsResumed, 0u);

  // Same options + Resume: every row restores from the journal — including
  // the recorded timings, bit-for-bit — and no study re-runs.
  Opts.Resume = true;
  std::vector<frontend::CaseResult> Resumed =
      frontend::runAllCaseStudies(Opts);
  ASSERT_EQ(Resumed.size(), Cold.size());
  EXPECT_EQ(frontend::summarize(Resumed).JobsResumed,
            unsigned(Resumed.size()));
  for (size_t I = 0; I < Cold.size(); ++I) {
    EXPECT_TRUE(Resumed[I].Resumed) << Resumed[I].Name;
    EXPECT_EQ(Resumed[I].Name, Cold[I].Name);
    EXPECT_EQ(Resumed[I].Ok, Cold[I].Ok) << Resumed[I].Name;
    EXPECT_EQ(Resumed[I].Error, Cold[I].Error) << Resumed[I].Name;
    EXPECT_EQ(Resumed[I].AsmInstrs, Cold[I].AsmInstrs) << Resumed[I].Name;
    EXPECT_EQ(Resumed[I].ItlEvents, Cold[I].ItlEvents) << Resumed[I].Name;
    EXPECT_EQ(Resumed[I].SpecSize, Cold[I].SpecSize) << Resumed[I].Name;
    EXPECT_EQ(Resumed[I].IslaSeconds, Cold[I].IslaSeconds)
        << Resumed[I].Name;
    EXPECT_EQ(Resumed[I].Proof.PathsVerified, Cold[I].Proof.PathsVerified)
        << Resumed[I].Name;
    EXPECT_EQ(Resumed[I].Proof.EventsProcessed,
              Cold[I].Proof.EventsProcessed)
        << Resumed[I].Name;
    EXPECT_EQ(Resumed[I].Proof.SolverQueries, Cold[I].Proof.SolverQueries)
        << Resumed[I].Name;
    EXPECT_EQ(Resumed[I].Proof.TotalSeconds, Cold[I].Proof.TotalSeconds)
        << Resumed[I].Name;
  }

  // A result-affecting configuration change keys differently: nothing from
  // the old run may be restored under the new guards.
  frontend::SuiteOptions Other = Opts;
  Other.Limits.InstrSeconds = 3600;
  std::vector<frontend::CaseResult> Fresh =
      frontend::runAllCaseStudies(Other);
  EXPECT_EQ(frontend::summarize(Fresh).JobsResumed, 0u);
  for (const frontend::CaseResult &R : Fresh)
    EXPECT_TRUE(R.Ok) << R.Name << ": " << R.Error;
}

TEST(SuiteCacheTest, ParallelSuiteMatchesSerial) {
  TraceCache C;
  frontend::SuiteOptions Par;
  Par.Threads = 4;
  Par.Cache = &C;
  std::vector<frontend::CaseResult> Rows =
      frontend::runAllCaseStudies(Par);
  std::vector<frontend::CaseResult> Serial =
      frontend::runAllCaseStudies();
  ASSERT_EQ(Rows.size(), Serial.size());
  for (size_t I = 0; I < Rows.size(); ++I) {
    EXPECT_TRUE(Rows[I].Ok) << Rows[I].Name << ": " << Rows[I].Error;
    EXPECT_EQ(Rows[I].Name, Serial[I].Name);
    EXPECT_EQ(Rows[I].ItlEvents, Serial[I].ItlEvents) << Rows[I].Name;
    EXPECT_EQ(Rows[I].Proof.PathsVerified, Serial[I].Proof.PathsVerified)
        << Rows[I].Name;
  }
}

//===----------------------------------------------------------------------===//
// Journal rotation/compaction.
//===----------------------------------------------------------------------===//

TEST(RunJournalTest, ExplicitCompactKeepsLastRecordPerKey) {
  TempDir Tmp;
  std::filesystem::path Path = Tmp.Path / "suite.journal";
  RunJournal J(Path.string());
  ASSERT_TRUE(J.open());
  // A long-lived suite re-appends every key each run: most of the file is
  // dead records.
  for (int Run = 0; Run < 8; ++Run)
    for (const char *K : {"a", "b", "c"})
      ASSERT_TRUE(J.append(jkey(K), std::string(K) + "-run" +
                                        std::to_string(Run)));
  uint64_t Before = J.fileBytes();
  ASSERT_TRUE(J.compact());
  EXPECT_EQ(J.compactions(), 1u);
  EXPECT_LT(J.fileBytes(), Before / 2);
  EXPECT_EQ(J.records(), 3u);
  ASSERT_NE(J.find(jkey("b")), nullptr);
  EXPECT_EQ(*J.find(jkey("b")), "b-run7");

  // Appends continue on the swapped file, and a reopen sees exactly the
  // compacted state plus the new record.
  ASSERT_TRUE(J.append(jkey("d"), "d-post"));
  RunJournal J2(Path.string());
  ASSERT_TRUE(J2.open());
  EXPECT_EQ(J2.records(), 4u);
  EXPECT_EQ(J2.tornBytesDiscarded(), 0u);
  ASSERT_NE(J2.find(jkey("a")), nullptr);
  EXPECT_EQ(*J2.find(jkey("a")), "a-run7");
  ASSERT_NE(J2.find(jkey("d")), nullptr);
  EXPECT_EQ(*J2.find(jkey("d")), "d-post");
}

TEST(RunJournalTest, AutoCompactionTriggersPastThreshold) {
  TempDir Tmp;
  RunJournal J((Tmp.Path / "auto.journal").string());
  ASSERT_TRUE(J.open());
  J.setCompactThreshold(4096);
  // One hot key re-appended far past the threshold: almost all bytes are
  // dead, so rotation must kick in on its own.
  std::string Payload(128, 'x');
  for (int I = 0; I < 200; ++I)
    ASSERT_TRUE(J.append(jkey("hot"), Payload + std::to_string(I)));
  EXPECT_GE(J.compactions(), 1u);
  EXPECT_LT(J.fileBytes(), 4096u);
  EXPECT_EQ(J.records(), 1u);
  ASSERT_NE(J.find(jkey("hot")), nullptr);
  EXPECT_EQ(*J.find(jkey("hot")), Payload + "199");
}

//===----------------------------------------------------------------------===//
// Clean-shutdown markers and scrub-on-open.
//===----------------------------------------------------------------------===//

TEST(ScrubTest, CleanShutdownMarkerIsConsumedAndSkipsScrub) {
  TempDir Tmp;
  std::string Dir = Tmp.Path.string();
  std::filesystem::create_directories(Tmp.Path);
  // A stale writer temp that a scrub would reap.
  writeFileRaw(Tmp.Path / "deadbeef.itc.tmp.1234.1", "torn write");

  ASSERT_TRUE(writeCleanShutdownMarker(Dir));
  ASSERT_TRUE(hasCleanShutdownMarker(Dir));

  // Marker present: the open-path scrub trusts the attestation, consumes
  // the marker, touches nothing.
  QuickScrubReport Clean = scrubOnOpen(Dir);
  EXPECT_TRUE(Clean.WasClean);
  EXPECT_EQ(Clean.TempsRemoved, 0u);
  EXPECT_FALSE(hasCleanShutdownMarker(Dir));
  EXPECT_TRUE(
      std::filesystem::exists(Tmp.Path / "deadbeef.itc.tmp.1234.1"));

  // Marker absent (an unclean shutdown): the same open now scrubs.
  QuickScrubReport Dirty = scrubOnOpen(Dir);
  EXPECT_FALSE(Dirty.WasClean);
  EXPECT_EQ(Dirty.TempsRemoved, 1u);
  EXPECT_FALSE(
      std::filesystem::exists(Tmp.Path / "deadbeef.itc.tmp.1234.1"));
}

TEST(ScrubTest, TraceCacheScrubOnOpenConfigRunsTheProtocol) {
  TempDir Tmp;
  TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  Cfg.ScrubOnOpen = true;
  std::filesystem::create_directories(Tmp.Path);
  writeFileRaw(Tmp.Path / "stale.itc.tmp.99.2", "torn");
  ASSERT_TRUE(writeCleanShutdownMarker(Cfg.Dir));
  {
    TraceCache C(Cfg); // consumes the marker, skips the scrub
  }
  EXPECT_FALSE(hasCleanShutdownMarker(Cfg.Dir));
  EXPECT_TRUE(std::filesystem::exists(Tmp.Path / "stale.itc.tmp.99.2"));
  {
    TraceCache C(Cfg); // no marker now: reaps the stale temp
  }
  EXPECT_FALSE(std::filesystem::exists(Tmp.Path / "stale.itc.tmp.99.2"));
}

//===----------------------------------------------------------------------===//
// Store generations.
//===----------------------------------------------------------------------===//

TEST(GenerationsTest, TouchRecordAndGcRetireOldModels) {
  TempDir Tmp;
  std::string Dir = Tmp.Path.string();
  Fingerprint OldModel = Fingerprinter().str("model-v1").digest();
  Fingerprint NewModel = Fingerprinter().str("model-v2").digest();
  Fingerprint OldKey = Fingerprinter().str("entry-old").digest();
  Fingerprint NewKey = Fingerprinter().str("entry-new").digest();

  auto entryPath = [&](const Fingerprint &K) {
    std::string Hex = K.toHex();
    return Tmp.Path / Hex.substr(0, 2) / (Hex + ".itc");
  };
  std::filesystem::create_directories(entryPath(OldKey).parent_path());
  std::filesystem::create_directories(entryPath(NewKey).parent_path());
  writeFileRaw(entryPath(OldKey), "old-model entry bytes");
  writeFileRaw(entryPath(NewKey), "new-model entry bytes");

  touchGeneration(Dir, OldModel);
  recordEntryGeneration(Dir, OldModel, OldKey);
  touchGeneration(Dir, NewModel);
  recordEntryGeneration(Dir, NewModel, NewKey);

  std::vector<GenerationRecord> Gens = readGenerations(Dir);
  ASSERT_EQ(Gens.size(), 2u);
  EXPECT_EQ(Gens.front().ModelFp, OldModel); // oldest first
  EXPECT_EQ(Gens.back().ModelFp, NewModel);
  EXPECT_LT(Gens.front().Seq, Gens.back().Seq);

  GenerationGcOptions O;
  O.Dir = Dir;
  O.KeepGenerations = 1;

  // Dry run: counts what retirement would remove, deletes nothing.
  O.DryRun = true;
  GenerationGcReport Dry = gcGenerations(O);
  EXPECT_EQ(Dry.Retired, 1u);
  EXPECT_EQ(Dry.EntriesRemoved, 1u);
  EXPECT_TRUE(std::filesystem::exists(entryPath(OldKey)));
  ASSERT_EQ(readGenerations(Dir).size(), 2u);

  // Real pass: the old model's manifest entries go, the new model's stay,
  // and the registry drops the retired row.
  O.DryRun = false;
  GenerationGcReport Rep = gcGenerations(O);
  EXPECT_EQ(Rep.Generations, 2u);
  EXPECT_EQ(Rep.Retired, 1u);
  EXPECT_EQ(Rep.EntriesRemoved, 1u);
  EXPECT_GT(Rep.BytesReclaimed, 0u);
  EXPECT_FALSE(std::filesystem::exists(entryPath(OldKey)));
  EXPECT_TRUE(std::filesystem::exists(entryPath(NewKey)));

  std::vector<GenerationRecord> After = readGenerations(Dir);
  ASSERT_EQ(After.size(), 1u);
  EXPECT_EQ(After.front().ModelFp, NewModel);

  // Idempotent: nothing left to retire.
  GenerationGcReport Again = gcGenerations(O);
  EXPECT_EQ(Again.Retired, 0u);
  EXPECT_EQ(Again.EntriesRemoved, 0u);
}

TEST(GenerationsTest, BatchDriverRecordsGenerationsForFreshEntries) {
  TempDir Tmp;
  TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Tmp.Path.string();
  TraceCache C(Cfg);

  const sail::Model &M = models::aarch64Model();
  isla::Assumptions A;
  namespace e = arch::aarch64::enc;
  cache::TraceJob TJ;
  TJ.Model = &M;
  TJ.ArchName = "aarch64";
  TJ.Op = isla::OpcodeSpec::concrete(e::addImm(0, 0, 7));
  TJ.Assume = &A;
  BatchDriver BD(1);
  auto R = BD.run({TJ}, &C);
  ASSERT_TRUE(R.front().Ok) << R.front().Error;

  // The run registered the model's generation and recorded the entry
  // against it, so a later `cachectl gc` can retire it precisely.
  std::vector<GenerationRecord> Gens = readGenerations(Cfg.Dir);
  ASSERT_EQ(Gens.size(), 1u);
  EXPECT_EQ(Gens.front().ModelFp, fingerprintModel(M));
  std::filesystem::path Manifest =
      Tmp.Path / "manifests" / (fingerprintModel(M).toHex() + ".mf");
  ASSERT_TRUE(std::filesystem::exists(Manifest));
  EXPECT_NE(readFileRaw(Manifest).find(R.front().Key.toHex()),
            std::string::npos);
}

} // namespace
