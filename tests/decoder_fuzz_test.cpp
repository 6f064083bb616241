//===- tests/decoder_fuzz_test.cpp - Seeded mutation fuzzing of decoders ---===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
// Every decoder that reads bytes from outside the program, fed seeded
// mutants of a corpus the program's own encoders wrote:
//
//  - the wire: FrameReader and the decodeRequest / decodeDone /
//    decodeHealth / decodeCaseResult payload decoders;
//  - the stores: RunJournal::open, the entry envelope, parseBundle and
//    TraceCache::parseEntry (with the trace re-parse TraceCache::decode
//    does on a hit);
//  - text: the ITL trace parser, the objdump reader, the Sail lexer and
//    parser, and BitVec::fromString.
//
// Mutations are bit flips, truncation, duplication of a slice, splicing
// two corpus entries, and over-long digit runs, stacked one to three deep.
// Each mutant must decode to a valid result or be refused cleanly: never a
// crash, an exception out of the decoder, or a hang (the ctest timeout).
// A decoded wire payload must re-encode to bytes that decode to the same
// encoding.
//
// The seed is ISLARIS_FAULT_SEED when set (default 1) and is printed, so a
// failure replays: ISLARIS_FAULT_SEED=<seed> ./decoder_fuzz_test.
//
//===----------------------------------------------------------------------===//

#include "arch/AArch64.h"
#include "cache/EntryFiles.h"
#include "cache/Journal.h"
#include "cache/SideCondCache.h"
#include "cache/TraceCache.h"
#include "frontend/CaseStudies.h"
#include "frontend/Objdump.h"
#include "isla/Executor.h"
#include "itl/Parser.h"
#include "models/Models.h"
#include "sail/Lexer.h"
#include "sail/Parser.h"
#include "server/Protocol.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

using namespace islaris;
namespace fs = std::filesystem;

namespace {

/// Mutants per decoder; the Sail parser, which parses a whole model per
/// mutant, gets a quarter of it.
constexpr unsigned Budget = 1000;

uint64_t fuzzSeed() {
  static const uint64_t Seed = [] {
    uint64_t S = 1;
    std::string Err;
    if (!support::faultSeedFromEnv(S, Err))
      ADD_FAILURE() << Err;
    std::printf("decoder_fuzz_test seed %llu\n", (unsigned long long)S);
    return S;
  }();
  return Seed;
}

/// Seeded mutations over a corpus (splitmix64, the FaultInjector family).
class Mutator {
public:
  Mutator(uint64_t Seed, std::string_view Stream) : State(Seed) {
    for (char C : Stream)
      State = State * 131 + uint8_t(C);
  }

  std::string mutate(const std::vector<std::string> &Corpus) {
    std::string S = Corpus[below(Corpus.size())];
    for (size_t N = 1 + below(3); N > 0; --N) {
      switch (below(5)) {
      case 0: // bit flips
        for (size_t K = 1 + below(4); K > 0 && !S.empty(); --K)
          S[below(S.size())] ^= char(1u << below(8));
        break;
      case 1: // truncate
        S.resize(below(S.size() + 1));
        break;
      case 2: { // duplicate a slice in place
        size_t From = below(S.size() + 1);
        size_t Len = below(S.size() - From + 1);
        S.insert(below(S.size() + 1), S.substr(From, Len));
        break;
      }
      case 3: { // splice: this entry's prefix, another's suffix
        const std::string &O = Corpus[below(Corpus.size())];
        S = S.substr(0, below(S.size() + 1)) + O.substr(below(O.size() + 1));
        break;
      }
      default: { // an over-long digit run, inside a number when one exists
        size_t At = S.find_first_of("0123456789", below(S.size() + 1));
        if (At == std::string::npos)
          At = below(S.size() + 1);
        std::string Run(20 + below(40), '0');
        for (char &C : Run)
          C = char('0' + below(10));
        S.insert(At, Run);
        break;
      }
      }
    }
    return S;
  }

private:
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return N ? size_t(next() % N) : 0; }

  uint64_t State;
};

/// Feeds every corpus entry (each must decode) and \p N mutants (each may
/// decode or be refused) to \p Decode, failing on anything that escapes.
void fuzz(const char *Name, const std::vector<std::string> &Corpus,
          const std::function<bool(const std::string &)> &Decode,
          unsigned N = Budget) {
  ASSERT_FALSE(Corpus.empty());
  auto Guarded = [&](const std::string &In, const char *What,
                     unsigned I) -> bool {
    try {
      return Decode(In);
    } catch (const std::exception &E) {
      ADD_FAILURE() << Name << ": " << What << " " << I << " threw "
                    << E.what() << " (seed " << fuzzSeed() << ")";
    } catch (...) {
      ADD_FAILURE() << Name << ": " << What << " " << I
                    << " threw a non-standard exception (seed " << fuzzSeed()
                    << ")";
    }
    return false;
  };
  for (unsigned I = 0; I < Corpus.size(); ++I)
    EXPECT_TRUE(Guarded(Corpus[I], "corpus entry", I))
        << Name << " refused its own encoder's output";
  Mutator M(fuzzSeed(), Name);
  unsigned Accepted = 0;
  for (unsigned I = 0; I < N; ++I)
    Accepted += Guarded(M.mutate(Corpus), "mutant", I);
  std::printf("%-22s %u/%u mutants decoded\n", Name, Accepted, N);
}

/// A decoded payload re-encodes to bytes that decode to the same encoding.
template <typename T>
bool stable(bool Decoded, const T &V, std::string (*Encode)(const T &),
            const std::function<bool(const std::string &, T &)> &Decode) {
  if (!Decoded)
    return false;
  std::string Once = Encode(V);
  T Again;
  EXPECT_TRUE(Decode(Once, Again)) << "re-encoding does not decode";
  EXPECT_EQ(Encode(Again), Once) << "re-encoding is not stable";
  return true;
}

isla::Assumptions el1() {
  isla::Assumptions A;
  A.assume(itl::Reg("PSTATE", "EL"), BitVec(2, 0b01));
  A.assume(itl::Reg("PSTATE", "SP"), BitVec(1, 1));
  A.assume(itl::Reg("SCTLR_EL1"), BitVec(64, 0));
  return A;
}

/// Printed trace-cache entries of a few real executions, with their keys.
struct TraceCorpus {
  std::vector<std::string> Entries, Traces;
  TraceCorpus() {
    namespace e = arch::aarch64::enc;
    const sail::Model &M = models::aarch64Model();
    smt::TermBuilder TB;
    isla::Executor Ex(M, TB);
    for (isla::OpcodeSpec Op :
         {isla::OpcodeSpec::symbolicField(e::movz(3, 0), 20, 5),
          isla::OpcodeSpec::concrete(e::addImm(0, 0, 1)),
          isla::OpcodeSpec::concrete(e::ret())}) {
      isla::ExecResult R = Ex.run(Op, el1(), isla::ExecOptions());
      EXPECT_TRUE(R.Ok) << R.Error;
      cache::CacheEntry E = cache::TraceCache::encode(R);
      Entries.push_back(cache::TraceCache::serializeEntry(
          cache::Fingerprinter().str(E.TraceText).digest(), E));
      Traces.push_back(E.TraceText);
    }
  }
};

const TraceCorpus &traceCorpus() {
  static const TraceCorpus C;
  return C;
}

std::vector<std::string> caseResults() {
  std::vector<std::string> Out;
  const frontend::StudyEntry &S = frontend::caseStudies()[0];
  Out.push_back(frontend::encodeCaseResult(S.Run(frontend::RunContext())));
  frontend::CaseResult Failed;
  Failed.Name = "binary search";
  Failed.Isa = "rv64";
  Failed.Error = "cannot prove\n (x < 4)";
  Failed.D = support::Diag::error(support::ErrorCode::ProofFailed,
                                  "proof-engine", Failed.Error);
  Failed.IslaSeconds = 0.125;
  Out.push_back(frontend::encodeCaseResult(Failed));
  return Out;
}

server::Request traceRequest() {
  server::Request R;
  R.Id = 42;
  R.DeadlineMs = 1500;
  R.Trace.Arch = "aarch64";
  R.Trace.Opcode = 0x910103ffu;
  R.Trace.SymMask = 0x3e0;
  R.Trace.Assumes.push_back({"PSTATE", "EL", 2, 1});
  R.Trace.Assumes.push_back({"SCTLR_EL1", "", 64, 0x30d00800});
  return R;
}

server::DoneInfo doneInfo() {
  server::DoneInfo D;
  D.Id = 42;
  D.Status = 2;
  D.Source = "failed";
  D.Attempts = 3;
  D.Seconds = 0.0123;
  D.Error = "shed: queue full";
  return D;
}

server::HealthInfo healthInfo() {
  server::HealthInfo H;
  H.Pid = 1234;
  H.UptimeSeconds = 12.5;
  H.QueueDepth = 7;
  H.Generation = 2;
  H.ModelFpHex = "0123456789abcdef";
  H.DegradedFlags = server::HealthDegradedCacheOff;
  H.DegradedSeconds = 1.0 / 3;
  return H;
}

std::vector<std::string> requests() {
  server::Request Study;
  Study.Id = 7;
  Study.K = server::Request::Kind::Study;
  Study.Study = "suite";
  return {server::encodeRequest(traceRequest()),
          server::encodeRequest(Study)};
}

//===----------------------------------------------------------------------===//
// The wire.
//===----------------------------------------------------------------------===//

TEST(DecoderFuzzTest, FrameReader) {
  using server::FrameType;
  std::string Stream =
      server::encodeFrame({FrameType::Hello, server::encodeHello({})}) +
      server::encodeFrame(
          {FrameType::Request, server::encodeRequest(traceRequest())}) +
      server::encodeFrame({FrameType::Done, server::encodeDone(doneInfo())}) +
      server::encodeFrame(
          {FrameType::Health, server::encodeHealth(healthInfo())}) +
      server::encodeFrame({FrameType::Bye, "drained"});
  fuzz("FrameReader", {Stream}, [](const std::string &In) {
    server::FrameReader FR;
    FR.feed(In.data(), In.size());
    server::Frame F;
    unsigned Frames = 0;
    for (;;) {
      server::FrameReader::Status St = FR.next(F);
      if (St == server::FrameReader::Status::Malformed)
        return false;
      if (St == server::FrameReader::Status::NeedMore)
        return FR.buffered() == 0 && Frames > 0;
      if (++Frames > In.size()) {
        ADD_FAILURE() << "FrameReader yields frames without consuming bytes";
        return false;
      }
    }
  });
}

TEST(DecoderFuzzTest, RequestPayload) {
  fuzz("decodeRequest", requests(), [](const std::string &In) {
    server::Request R;
    return stable<server::Request>(
        server::decodeRequest(In, R), R, server::encodeRequest,
        [](const std::string &S, server::Request &O) {
          return server::decodeRequest(S, O);
        });
  });
}

TEST(DecoderFuzzTest, DonePayload) {
  fuzz("decodeDone", {server::encodeDone(doneInfo())},
       [](const std::string &In) {
         server::DoneInfo D;
         return stable<server::DoneInfo>(
             server::decodeDone(In, D), D, server::encodeDone,
             [](const std::string &S, server::DoneInfo &O) {
               return server::decodeDone(S, O);
             });
       });
}

TEST(DecoderFuzzTest, HealthPayload) {
  fuzz("decodeHealth", {server::encodeHealth(healthInfo())},
       [](const std::string &In) {
         server::HealthInfo H;
         return stable<server::HealthInfo>(
             server::decodeHealth(In, H), H, server::encodeHealth,
             [](const std::string &S, server::HealthInfo &O) {
               return server::decodeHealth(S, O);
             });
       });
}

TEST(DecoderFuzzTest, CaseResultPayload) {
  fuzz("decodeCaseResult", caseResults(), [](const std::string &In) {
    frontend::CaseResult R;
    return stable<frontend::CaseResult>(
        frontend::decodeCaseResult(In, R), R, frontend::encodeCaseResult,
        [](const std::string &S, frontend::CaseResult &O) {
          return frontend::decodeCaseResult(S, O);
        });
  });
}

//===----------------------------------------------------------------------===//
// The stores.
//===----------------------------------------------------------------------===//

TEST(DecoderFuzzTest, RunJournalOpen) {
  char Tmpl[] = "/tmp/islaris-fuzz-XXXXXX";
  ASSERT_NE(::mkdtemp(Tmpl), nullptr);
  std::string Path = std::string(Tmpl) + "/suite.journal";
  std::vector<cache::Fingerprint> Keys;
  std::string Journal;
  std::vector<std::string> Rows = caseResults();
  for (size_t I = 0; I < Rows.size(); ++I) {
    Keys.push_back(cache::Fingerprinter().u64(I).digest());
    Journal += cache::RunJournal::encodeRecord(Keys.back(), Rows[I]);
  }
  fuzz("RunJournal::open", {Journal}, [&](const std::string &In) {
    {
      std::ofstream F(Path, std::ios::binary | std::ios::trunc);
      F << In;
    }
    cache::RunJournal J(Path);
    if (!J.open())
      return false;
    for (const cache::Fingerprint &K : Keys)
      if (const std::string *Row = J.find(K)) {
        frontend::CaseResult R;
        frontend::decodeCaseResult(*Row, R);
      }
    J.drainDiags();
    return J.records() == Keys.size() && J.tornBytesDiscarded() == 0;
  });
  std::error_code EC;
  fs::remove_all(Tmpl, EC);
}

TEST(DecoderFuzzTest, EntryEnvelope) {
  cache::Fingerprint K = cache::Fingerprinter().str("entry").digest();
  std::vector<std::string> Corpus;
  for (const std::string &E : traceCorpus().Entries)
    Corpus.push_back(cache::wrapDurableEntry(K, E));
  fuzz("unwrapDurableEntry", Corpus, [&](const std::string &In) {
    std::string Payload;
    return cache::unwrapDurableEntry(In, K, Payload) ==
           cache::EnvelopeResult::Ok;
  });
}

TEST(DecoderFuzzTest, SideCondBundle) {
  smt::SolverCache::CachedResult Sat;
  Sat.Sat = true;
  Sat.Model.emplace_back("b", 0u, BitVec(1, 1));
  Sat.Model.emplace_back("x", 16u, BitVec(16, 0x1234));
  Sat.Model.emplace_back("y", 3u, BitVec(3, 5));
  cache::SideCondStore::Answers A;
  A[cache::Fingerprinter().str("sat").digest()] = Sat;
  A[cache::Fingerprinter().str("unsat").digest()] = {};
  std::string Bundle = cache::SideCondStore::serializeBundle(
      cache::Fingerprinter().str("bundle").digest(), A);
  fuzz("parseBundle", {Bundle}, [](const std::string &In) {
    cache::SideCondStore::Answers Out;
    std::string Err;
    return cache::SideCondStore::parseBundle(In, Out, Err);
  });
}

TEST(DecoderFuzzTest, TraceCacheEntry) {
  fuzz("TraceCache::parseEntry", traceCorpus().Entries,
       [](const std::string &In) {
         cache::CacheEntry E;
         std::string Err;
         if (!cache::TraceCache::parseEntry(In, E, Err))
           return false;
         smt::TermBuilder TB;
         isla::ExecResult R;
         return cache::TraceCache::decode(E, TB, R, Err);
       });
}

//===----------------------------------------------------------------------===//
// Text.
//===----------------------------------------------------------------------===//

TEST(DecoderFuzzTest, ItlText) {
  fuzz("itl::TraceParser", traceCorpus().Traces, [](const std::string &In) {
    smt::TermBuilder TB;
    itl::TraceParser P(TB);
    return P.parseTrace(In).has_value();
  });
}

TEST(DecoderFuzzTest, Objdump) {
  namespace e = arch::aarch64::enc;
  std::string Listing = "\nout.o:     file format elf64-littleaarch64\n\n"
                        "0000000000400000 <memcpy>:\n";
  uint64_t Addr = 0x400000;
  for (uint32_t W : {e::movz(3, 0), e::addImm(0, 0, 1), e::ret()}) {
    char Line[64];
    std::snprintf(Line, sizeof Line, "  %llx:\t%08x \tinsn\n",
                  (unsigned long long)Addr, W);
    Listing += Line;
    Addr += 4;
  }
  fuzz("parseObjdump", {Listing}, [](const std::string &In) {
    std::string Err;
    return frontend::parseObjdump(In, Err).has_value();
  });
}

TEST(DecoderFuzzTest, SailModelText) {
  std::vector<std::string> Sources = {models::rv64Source(),
                                      models::aarch64Source()};
  fuzz("sail::Lexer", Sources,
       [](const std::string &In) { return sail::Lexer(In).ok(); });
  fuzz(
      "sail::parseModel", Sources,
      [](const std::string &In) {
        std::string Err;
        return sail::parseModel(In, Err) != nullptr;
      },
      Budget / 4);
}

TEST(DecoderFuzzTest, BitVecFromString) {
  std::vector<std::string> Corpus;
  for (const BitVec &V : {BitVec(64, 0x30d00800), BitVec(3, 5),
                          BitVec(1, 1), BitVec(128, 7)}) {
    Corpus.push_back(V.toString());
    Corpus.push_back(V.toHexString());
  }
  fuzz("BitVec::fromString", Corpus, [](const std::string &In) {
    BitVec V;
    return BitVec::fromString(In, V);
  });
}

} // namespace
