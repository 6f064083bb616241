//===- tests/snapshot_test.cpp - Snapshot-forking engine tests -----------------===//
//
// The snapshot engine's contract: traces that match a golden corpus
// recorded from the original per-path re-executing engine and that pass
// the §5 validator, while restoring shared prefixes from checkpoints
// instead of re-executing them; plus the purity classification and
// pure-helper summary memo that ride on it, and the rule that trace
// generation leaves the side-condition store to the proof engine.
//
//===----------------------------------------------------------------------===//

#include "arch/AArch64.h"
#include "arch/RiscV.h"
#include "cache/Fingerprint.h"
#include "cache/SideCondCache.h"
#include "frontend/CaseStudies.h"
#include "isla/Executor.h"
#include "models/Models.h"
#include "sail/Parser.h"
#include "validation/Validator.h"

#include <gtest/gtest.h>

using namespace islaris;
using namespace islaris::isla;
using islaris::itl::Reg;

namespace {

Assumptions el1Assumptions() {
  Assumptions A;
  A.assume(Reg("PSTATE", "EL"), BitVec(2, 0b01));
  A.assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  A.assume(Reg("SCTLR_EL1"), BitVec(64, 0));
  return A;
}

/// A model exercising the pure-helper summary memo: dbl(X0) is called four
/// times with the same argument term.
const char *MemoArch = R"(
register X0 : bits(64)
register X1 : bits(64)
register _PC : bits(64)

function dbl(x : bits(64)) -> bits(64) = {
  return x + x;
}

function quad(x : bits(64)) -> bits(64) = {
  return dbl(dbl(x));
}

function bump() -> unit = {
  X1 = X1 + 0x0000000000000001;
}

function decode(opcode : bits(32)) -> unit = {
  X1 = dbl(X0);
  X1 = dbl(X0);
  X1 = quad(X0);
  bump();
  _PC = _PC + 0x0000000000000004;
}
)";

/// Independent two-way forks: enumeration explores 2^N leaves.
const char *ManyBranchArch = R"(
register X0 : bits(64)
register X1 : bits(64)
register X2 : bits(64)
register X3 : bits(64)
register _PC : bits(64)

function decode(opcode : bits(32)) -> unit = {
  if opcode[0] == 0b1 then { X1 = X0 + X0; } else { X1 = X0; };
  if opcode[1] == 0b1 then { X2 = X1 + X1; } else { X2 = X1; };
  if opcode[2] == 0b1 then { X3 = X2 + X2; } else { X3 = X2; };
  _PC = _PC + 0x0000000000000004;
}
)";

/// A fork nested inside another fork's then-arm: restoring the inner
/// fork's checkpoint must not disturb the outer one's (3 paths).
const char *NestedForkArch = R"(
register X0 : bits(64)
register X1 : bits(64)
register X2 : bits(64)
register _PC : bits(64)

function decode(opcode : bits(32)) -> unit = {
  if opcode[0] == 0b1 then {
    if opcode[1] == 0b1 then { X1 = X0 + X0; } else { X1 = X0; };
    X2 = X1;
  } else {
    X2 = X0;
  };
  _PC = _PC + 0x0000000000000004;
}
)";

/// A return inside a forked arm unwinds past the fork's join, so that path
/// skips the code after the if.
const char *EarlyReturnArch = R"(
register X0 : bits(64)
register X1 : bits(64)
register X2 : bits(64)
register _PC : bits(64)

function decode(opcode : bits(32)) -> unit = {
  if opcode[0] == 0b1 then { X1 = X0; return; } else { X1 = X0 + X0; };
  X2 = X1;
  _PC = _PC + 0x0000000000000004;
}
)";

/// A memory write in one arm of a fork.
const char *MemWriteArch = R"(
register X0 : bits(64)
register X1 : bits(64)
register _PC : bits(64)

function decode(opcode : bits(32)) -> unit = {
  if opcode[0] == 0b1 then {
    write_mem(0x0000000000001000, truncate(X0, 8), 1);
  } else {
    X1 = X0 + X0;
  };
  _PC = _PC + 0x0000000000000004;
}
)";

std::unique_ptr<sail::Model> parseArch(const char *Src) {
  std::string Err;
  auto M = sail::parseModel(Src, Err);
  EXPECT_TRUE(M != nullptr) << Err;
  return M;
}

//===----------------------------------------------------------------------===//
// The golden trace corpus.
//
// Each row was recorded by running the original engine, which re-executed
// the whole model once per path along a recorded decision prefix, and the
// snapshot engine side by side; the two agreed on every row.  That engine
// is gone, so these rows are now the record of its answers.  The corpus
// is the AArch64 fuzz corpus (every flag-branch condition code, several
// register selections, memory, symbolic immediate and destination fields,
// and the unconstrained flag branch), bench_traces' four studies, the
// RV64 and Arm opcodes of validation_test, MemoArch, ManyBranchArch
// with three symbolic bits, whose nested forks pin the depth-first order
// in which paths are explored, and three small forking models:
// NestedForkArch (checkpoint restore across nested forks), EarlyReturnArch
// (return unwinding inside a forked arm) and MemWriteArch (a memory event
// in one arm).
//
// Rule: a change that alters the shape of any trace here regenerates this
// table and says why in CHANGES.md.  A digest is the cache::Fingerprinter
// digest of Trace.toString().
//===----------------------------------------------------------------------===//

enum class Assume : uint8_t { None, El1, El2 };

struct GoldenRow {
  const char *Name;
  /// "aarch64", "rv64", "memo" (MemoArch), "forks" (ManyBranchArch),
  /// "nested" (NestedForkArch), "early-return" (EarlyReturnArch) or
  /// "mem-write" (MemWriteArch).
  const char *Arch;
  uint32_t Opcode;
  uint32_t SymMask;
  Assume A;
  const char *Digest;
  unsigned Paths, Events, PrunedBranches;
  size_t OpcodeVars;
};

const GoldenRow Golden[] = {
    {"bcond-0", "aarch64", 0x54000200u, 0x00000000u, Assume::El1, "dce6d1ec1b92e08b12a1ac9e6c5de839", 2, 16, 0, 0},
    {"bcond-1", "aarch64", 0x54000201u, 0x00000000u, Assume::El1, "f1638f4199ce37fe70e17bc1566a2ea3", 2, 16, 0, 0},
    {"bcond-2", "aarch64", 0x54000202u, 0x00000000u, Assume::El1, "d7baa16ef19a4f56172f6fbc48f61aa5", 2, 16, 0, 0},
    {"bcond-3", "aarch64", 0x54000203u, 0x00000000u, Assume::El1, "61aeaf3b24ffa8f236fc365f747a5ded", 2, 16, 0, 0},
    {"bcond-4", "aarch64", 0x54000204u, 0x00000000u, Assume::El1, "872452ca319313ebc4e82d8f3a83ab23", 2, 16, 0, 0},
    {"bcond-5", "aarch64", 0x54000205u, 0x00000000u, Assume::El1, "2282a8aeaca2e3a3842fe7595a3f5078", 2, 16, 0, 0},
    {"bcond-6", "aarch64", 0x54000206u, 0x00000000u, Assume::El1, "bdb9ace0c1fc9c808158a02c7909feeb", 2, 16, 0, 0},
    {"bcond-7", "aarch64", 0x54000207u, 0x00000000u, Assume::El1, "0138ff425c7808cda4196fe607b28d58", 2, 16, 0, 0},
    {"bcond-8", "aarch64", 0x54000208u, 0x00000000u, Assume::El1, "a3cf4e5ddd03229066528b9dfe9b21cf", 2, 18, 0, 0},
    {"bcond-9", "aarch64", 0x54000209u, 0x00000000u, Assume::El1, "b4b46821ed716a4758b6d5f2d4ed26f7", 2, 18, 0, 0},
    {"bcond-10", "aarch64", 0x5400020au, 0x00000000u, Assume::El1, "661fd108bba2f29f07f86c02ac1a90e2", 2, 18, 0, 0},
    {"bcond-11", "aarch64", 0x5400020bu, 0x00000000u, Assume::El1, "8108778f3dc5b6d6cc9157bb643b4861", 2, 18, 0, 0},
    {"bcond-12", "aarch64", 0x5400020cu, 0x00000000u, Assume::El1, "b375576dc9e5ea48c0a592238767c04b", 2, 20, 0, 0},
    {"bcond-13", "aarch64", 0x5400020du, 0x00000000u, Assume::El1, "659affe4d722d8cb8099ab30138ea840", 2, 20, 0, 0},
    {"bcond-14", "aarch64", 0x5400020eu, 0x00000000u, Assume::El1, "5380d6dbb6db1d89a04f72256a0f74e4", 1, 7, 0, 0},
    {"bcond-15", "aarch64", 0x5400020fu, 0x00000000u, Assume::El1, "5380d6dbb6db1d89a04f72256a0f74e4", 1, 7, 0, 0},
    {"add-rd0", "aarch64", 0x91000400u, 0x00000000u, Assume::El1, "424a663ac5853140cee73406ab41f54c", 1, 11, 0, 0},
    {"add-rd7", "aarch64", 0x910020e7u, 0x00000000u, Assume::El1, "3bb99826c9a1a3689fc2d04bce4808cf", 1, 11, 0, 0},
    {"add-rd14", "aarch64", 0x91003dceu, 0x00000000u, Assume::El1, "e13187bcbdc8a74ba7e6851bc5171dd5", 1, 11, 0, 0},
    {"add-rd21", "aarch64", 0x91005ab5u, 0x00000000u, Assume::El1, "9959b184d5c189ff0f55401810101920", 1, 11, 0, 0},
    {"add-rd28", "aarch64", 0x9100779cu, 0x00000000u, Assume::El1, "c4a562e252d6fd86c3272c0022f61319", 1, 11, 0, 0},
    {"ldr", "aarch64", 0x39400002u, 0x00000000u, Assume::El1, "088d9719191b0f2955bc96e503b4b5fa", 1, 13, 0, 0},
    {"str", "aarch64", 0x39000022u, 0x00000000u, Assume::El1, "176f860d1a745cbddb68190c87bbfe4b", 1, 13, 0, 0},
    {"ret", "aarch64", 0xd65f03c0u, 0x00000000u, Assume::El1, "025d8d736357087f05c9266bdccaa22c", 1, 6, 0, 0},
    {"sym-imm", "aarch64", 0x91000400u, 0x003ffc00u, Assume::El1, "bbf6723545fb97bf0763c9e52b77dc7a", 1, 12, 0, 1},
    {"sym-rd", "aarch64", 0x91000400u, 0x0000001fu, Assume::El1, "1261ddccfe33975575c8b880bf7ac537", 32, 293, 1, 1},
    {"beq-unconstrained", "aarch64", 0x54fffe00u, 0x00000000u, Assume::None, "6c77b0814ee159762beadb714b0da409", 2, 13, 0, 0},
    {"add-sp-imm-el2", "aarch64", 0x910103ffu, 0x00000000u, Assume::El2, "f693e9779b33fa71065fb82d1fda453e", 1, 12, 0, 0},
    {"beq-minus-16", "aarch64", 0x54ffff80u, 0x00000000u, Assume::None, "d685e422c31717d8c940c620e1156765", 2, 13, 0, 0},
    {"add-sp-symbolic-imm", "aarch64", 0x91010000u, 0x003ffc00u, Assume::None, "caa256a3ebc9835f8464aa1e56ad6815", 1, 9, 0, 1},
    {"add-imm-symbolic-rd", "aarch64", 0x91000400u, 0x0000001fu, Assume::El1, "1261ddccfe33975575c8b880bf7ac537", 32, 293, 1, 1},
    {"rv-beqz", "rv64", 0x00060e63u, 0x00000000u, Assume::None, "e3e32e4b7beca1ac4897c579c954ad37", 2, 13, 0, 0},
    {"rv-lb", "rv64", 0x00058683u, 0x00000000u, Assume::None, "a4e0ee211bd7409b8cb38b7bfaf994e4", 1, 10, 0, 0},
    {"rv-sb", "rv64", 0x00d50023u, 0x00000000u, Assume::None, "ef2f375b5922e92e62730a059c8c43a2", 1, 10, 0, 0},
    {"rv-addi-a2", "rv64", 0xfff60613u, 0x00000000u, Assume::None, "8e0b5da42f80a8b67b10a23d95435f62", 1, 8, 0, 0},
    {"rv-addi-a0", "rv64", 0x00150513u, 0x00000000u, Assume::None, "c463af388d171ade34fcf2d373402572", 1, 8, 0, 0},
    {"rv-addi-a1", "rv64", 0x00158593u, 0x00000000u, Assume::None, "2b36c340d7cb38f59bf220dfdd268817", 1, 8, 0, 0},
    {"rv-bnez", "rv64", 0xfe0616e3u, 0x00000000u, Assume::None, "519de51c27101006502c65f06549ca6d", 2, 13, 0, 0},
    {"rv-ret", "rv64", 0x00008067u, 0x00000000u, Assume::None, "0e0b2561fbcd8ca889fe492954278736", 1, 6, 0, 0},
    {"rv-lui", "rv64", 0x123452b7u, 0x00000000u, Assume::None, "8deb77fae9ab760ff747e04a51c338a7", 1, 5, 0, 0},
    {"rv-auipc", "rv64", 0x00001317u, 0x00000000u, Assume::None, "b8fb35fda7ac3a4d35cc8f24c7801b64", 1, 6, 0, 0},
    {"rv-add", "rv64", 0x006283b3u, 0x00000000u, Assume::None, "99360b3581af1dd3b2a131c514f0f837", 1, 10, 0, 0},
    {"rv-sub", "rv64", 0x406283b3u, 0x00000000u, Assume::None, "6072bd951e2f93653a78fa927ea618da", 1, 10, 0, 0},
    {"rv-sltu", "rv64", 0x0062b433u, 0x00000000u, Assume::None, "e724d012de553edae7f278a1155bcb14", 1, 10, 0, 0},
    {"rv-andi", "rv64", 0x07f2f493u, 0x00000000u, Assume::None, "47ad15d170c3cbbca7567b2e8088d085", 1, 8, 0, 0},
    {"rv-slli", "rv64", 0x00729513u, 0x00000000u, Assume::None, "75294fdf7e488e1f14906f3bca9a37ac", 1, 8, 0, 0},
    {"rv-srai", "rv64", 0x4032d593u, 0x00000000u, Assume::None, "1dfb426720cfbd01b012238ee6cc5c49", 1, 8, 0, 0},
    {"rv-ld", "rv64", 0x0082b603u, 0x00000000u, Assume::None, "4756c2fb7a4752ce144dec63d1c35107", 1, 9, 0, 0},
    {"rv-sd", "rv64", 0x00c2b823u, 0x00000000u, Assume::None, "aebb37aefe30363d4da75af29d53bac0", 1, 9, 0, 0},
    {"rv-blt", "rv64", 0x0262c063u, 0x00000000u, Assume::None, "1252237ee245a8fe8968d5c1b0276466", 2, 15, 0, 0},
    {"rv-bgeu", "rv64", 0xfe62f0e3u, 0x00000000u, Assume::None, "2f7187915ae13524331def64a2012122", 2, 15, 0, 0},
    {"rv-jal", "rv64", 0x001000efu, 0x00000000u, Assume::None, "f7caa0843f3b7cf675ff541ef165a50f", 1, 6, 0, 0},
    {"rv-jalr", "rv64", 0x004280e7u, 0x00000000u, Assume::None, "272cae75484eac0037203788eb222be1", 1, 8, 0, 0},
    {"arm-cbz", "aarch64", 0xb40000e2u, 0x00000000u, Assume::None, "e2173c6193c064092940fb48bfc38d34", 2, 13, 0, 0},
    {"arm-movz", "aarch64", 0xd2800003u, 0x00000000u, Assume::None, "9411b9d9fcb28e6fe833286c167024ac", 1, 5, 0, 0},
    {"arm-ldr-reg", "aarch64", 0x38636824u, 0x00000000u, Assume::None, "acbf23dba42855efb8be398536cb337d", 1, 12, 0, 0},
    {"arm-str-reg", "aarch64", 0x38236804u, 0x00000000u, Assume::None, "5c940119a0911b080d091e4316a77811", 1, 12, 0, 0},
    {"arm-add-imm", "aarch64", 0x91000463u, 0x00000000u, Assume::None, "767f03cbd292f4c9a7b814c7d23ff2db", 1, 8, 0, 0},
    {"arm-cmp-reg", "aarch64", 0xeb03005fu, 0x00000000u, Assume::None, "039ca02030a3e3720d4d180db504d05b", 1, 16, 0, 0},
    {"arm-bne", "aarch64", 0x54ffff81u, 0x00000000u, Assume::None, "adc25d9862db320f3bf6cabd3f360820", 2, 13, 0, 0},
    {"arm-ret", "aarch64", 0xd65f03c0u, 0x00000000u, Assume::None, "4192130b40670c754c0afd5e61c54ed1", 1, 3, 0, 0},
    {"memo", "memo", 0x00000000u, 0x00000000u, Assume::None, "87e5281c4e2155659f3c149efb81c927", 1, 14, 0, 0},
    {"forks-3", "forks", 0x00000000u, 0x00000007u, Assume::None, "903bf29bea71fc18a93ba06966752ed8", 8, 79, 0, 1},
    {"nested-2", "nested", 0x00000000u, 0x00000003u, Assume::None, "789498e0b3eda537946563bdfcfa9592", 3, 31, 0, 1},
    {"early-return-1", "early-return", 0x00000000u, 0x00000001u, Assume::None, "e5a7883545da86708cf4b5c2b37c19b3", 2, 16, 0, 1},
    {"mem-write-1", "mem-write", 0x00000000u, 0x00000001u, Assume::None, "43575408dc5cd9ae0253a7bdc8e252b9", 2, 20, 0, 1},
};

Assumptions assumptionsFor(Assume K) {
  if (K == Assume::El1)
    return el1Assumptions();
  Assumptions A;
  if (K == Assume::El2) {
    A.assume(Reg("PSTATE", "EL"), BitVec(2, 0b10));
    A.assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  }
  return A;
}

const sail::Model &modelFor(const std::string &Arch) {
  static std::unique_ptr<sail::Model> Memo = parseArch(MemoArch);
  static std::unique_ptr<sail::Model> Forks = parseArch(ManyBranchArch);
  static std::unique_ptr<sail::Model> Nested = parseArch(NestedForkArch);
  static std::unique_ptr<sail::Model> Early = parseArch(EarlyReturnArch);
  static std::unique_ptr<sail::Model> Mem = parseArch(MemWriteArch);
  if (Arch == "aarch64")
    return models::aarch64Model();
  if (Arch == "rv64")
    return models::rv64Model();
  if (Arch == "forks")
    return *Forks;
  if (Arch == "nested")
    return *Nested;
  if (Arch == "early-return")
    return *Early;
  if (Arch == "mem-write")
    return *Mem;
  return *Memo;
}

std::string digestOf(const itl::Trace &T) {
  cache::Fingerprinter FP;
  FP.str(T.toString());
  return FP.digest().toHex();
}

/// Runs \p Row under the snapshot engine in \p TB and checks it against
/// its recorded answer; a concrete opcode must also pass the §5 validator
/// (every path solver-witnessed and replayed on the concrete model).
ExecResult expectGolden(const GoldenRow &Row, smt::TermBuilder &TB) {
  const sail::Model &M = modelFor(Row.Arch);
  Assumptions A = assumptionsFor(Row.A);
  Executor X(M, TB);
  ExecResult R =
      X.run({BitVec(32, Row.Opcode), BitVec(32, Row.SymMask)}, A);
  EXPECT_TRUE(R.Ok) << Row.Name << ": " << R.Error;
  if (!R.Ok)
    return R;
  EXPECT_EQ(digestOf(R.Trace), Row.Digest) << Row.Name;
  EXPECT_EQ(R.Stats.Paths, Row.Paths) << Row.Name;
  EXPECT_EQ(R.Stats.Events, Row.Events) << Row.Name;
  EXPECT_EQ(R.Stats.PrunedBranches, Row.PrunedBranches) << Row.Name;
  EXPECT_EQ(R.OpcodeVars.size(), Row.OpcodeVars) << Row.Name;
  if (Row.SymMask == 0) {
    const char *Pc = std::string(Row.Arch) == "rv64" ? "PC" : "_PC";
    validation::ValidationResult VR = validation::validateInstruction(
        M, TB, Row.Opcode, A, R.Trace, Pc, /*RandomTrials=*/4, Row.Opcode);
    EXPECT_TRUE(VR.Ok) << Row.Name << ": " << VR.Error;
    EXPECT_EQ(VR.PathsCovered, VR.Paths) << Row.Name;
  }
  return R;
}

const GoldenRow &goldenRow(const std::string &Name) {
  for (const GoldenRow &Row : Golden)
    if (Name == Row.Name)
      return Row;
  ADD_FAILURE() << "no golden row " << Name;
  return Golden[0];
}

} // namespace

TEST(SnapshotGoldenTest, CorpusMatchesRecordedTraces) {
  for (const GoldenRow &Row : Golden) {
    smt::TermBuilder TB;
    expectGolden(Row, TB);
  }
}

TEST(SnapshotSuiteTest, AllNineCaseStudiesMatchRecordedCounters) {
  // Proof events and executed statements of one uncached suite run, as
  // recorded with the original engine's rows alongside.  Per study, that
  // engine's statement count was IslaStmts + IslaStmtsSkipped.
  struct Recorded {
    const char *Name, *Isa;
    unsigned Events;
    uint64_t Stmts, Skipped;
  };
  const Recorded Want[] = {
      {"memcpy", "Arm", 78, 412, 52},      {"memcpy", "RV", 72, 391, 85},
      {"hvc", "Arm", 170, 479, 0},         {"pKVM", "Arm", 717, 2207, 104},
      {"unaligned", "Arm", 46, 80, 34},    {"UART", "Arm", 97, 341, 26},
      {"rbit", "Arm", 11, 91, 0},          {"bin.search", "Arm", 259, 1409, 52},
      {"bin.search", "RV", 164, 1026, 101},
  };
  std::vector<frontend::CaseResult> S = frontend::runAllCaseStudies();
  ASSERT_EQ(S.size(), std::size(Want));
  for (size_t I = 0; I < S.size(); ++I) {
    const frontend::CaseResult &R = S[I];
    EXPECT_TRUE(R.Ok) << R.Name << ": " << R.Error;
    EXPECT_EQ(R.Name, Want[I].Name);
    EXPECT_EQ(R.Isa, Want[I].Isa);
    EXPECT_EQ(R.Proof.EventsProcessed, Want[I].Events) << R.Name;
    EXPECT_EQ(R.IslaStmts, Want[I].Stmts) << R.Name;
    EXPECT_EQ(R.IslaStmtsSkipped, Want[I].Skipped) << R.Name;
    // A healthy rewrite-rule set never hits the fixpoint cap.
    EXPECT_EQ(R.FixpointCapHits, 0u) << R.Name;
  }
}

//===----------------------------------------------------------------------===//
// The performance contract.
//===----------------------------------------------------------------------===//

TEST(SnapshotPerfTest, MultiPathStmtsAtLeastHalved) {
  // A symbolic destination register forks through the register-select
  // chain: 32 paths sharing one long decode prefix.
  smt::TermBuilder TB;
  ExecResult R = expectGolden(goldenRow("sym-rd"), TB);
  ASSERT_TRUE(R.Ok);
  ASSERT_EQ(R.Stats.Paths, 32u);

  // Re-running the model per path dispatches executed + skipped statements
  // (2067 when recorded).  Restoring the shared prefix from checkpoints
  // skips at least as many statements as it executes, so at most half of
  // that work remains.
  EXPECT_GE(R.Stats.StmtsSkippedBySnapshot, R.Stats.StmtsExecuted);
  EXPECT_EQ(R.Stats.StmtsExecuted, 241u);
  EXPECT_EQ(R.Stats.StmtsSkippedBySnapshot, 1826u);
}

//===----------------------------------------------------------------------===//
// Purity classification and the pure-helper summary memo.
//===----------------------------------------------------------------------===//

namespace {

const sail::FunctionDecl *findFn(const sail::Model &M,
                                 const std::string &Name) {
  for (const auto &F : M.Functions)
    if (F->Name == Name)
      return F.get();
  return nullptr;
}

} // namespace

TEST(PurityTest, ClassifierSeparatesPureFromEffectful) {
  auto M = parseArch(MemoArch);
  ASSERT_TRUE(M);
  ASSERT_TRUE(findFn(*M, "dbl"));
  EXPECT_TRUE(findFn(*M, "dbl")->IsPure);
  ASSERT_TRUE(findFn(*M, "quad"));
  EXPECT_TRUE(findFn(*M, "quad")->IsPure); // pure via pure callee
  ASSERT_TRUE(findFn(*M, "bump"));
  EXPECT_FALSE(findFn(*M, "bump")->IsPure); // writes a register
  ASSERT_TRUE(findFn(*M, "decode"));
  EXPECT_FALSE(findFn(*M, "decode")->IsPure);
}

TEST(PurityTest, ProductionModelsClassifyRegisterAccessAsImpure) {
  // Spot check on the real models: anything touching registers or memory
  // must be impure, or the memo could replay stale machine state.
  const sail::Model &Arm = models::aarch64Model();
  for (const char *N : {"decode", "rget", "rset", "aget_SP", "aset_SP"}) {
    const sail::FunctionDecl *F = findFn(Arm, N);
    if (F) {
      EXPECT_FALSE(F->IsPure) << N;
    }
  }
}

TEST(HelperMemoTest, RepeatedPureCallsHitTheMemo) {
  smt::TermBuilder TB;
  ExecResult S = expectGolden(goldenRow("memo"), TB);
  ASSERT_TRUE(S.Ok);
  // dbl(X0) is called four times with the same argument term (the cached
  // X0 read): the 2nd, and both inner calls of quad's outer dbl(dbl(X0))
  // — the inner dbl(X0) and the outer dbl(v) after the first compute.
  // Memoization must not change the trace: expectGolden compared it with
  // the recorded, memo-free answer and validated it on MemoArch.
  EXPECT_GE(S.Stats.HelperMemoHits, 2u);
}

//===----------------------------------------------------------------------===//
// The side-condition store serves proofs alone.
//===----------------------------------------------------------------------===//

TEST(TraceStoreIsolationTest, TraceGenerationLeavesTheSideCondStoreAlone) {
  // b.eq on an unconstrained PSTATE.Z forks, so the executor prunes both
  // sides with its solver.  Those checks stay inside the executor's own
  // smt::Solver: a trace depends only on the model, the opcode and the
  // assumptions, never on what a shared store holds.
  namespace e = arch::aarch64::enc;
  cache::SideCondStore Store{cache::SideCondConfig()};
  frontend::Verifier V(frontend::aarch64(), {nullptr, &Store, {}});
  V.addCode({{0x1000, e::bcond(arch::aarch64::Cond::EQ, 8)},
             {0x1004, e::addImm(0, 0, 1)},
             {0x1008, e::ret()}});
  std::string Err;
  ASSERT_TRUE(V.generateTraces(Err)) << Err;
  ASSERT_EQ(V.genStats().Executed, 3u);
  cache::SideCondStats S = Store.stats();
  EXPECT_EQ(S.Hits + S.DiskHits + S.Misses, 0u); // no lookups
  EXPECT_EQ(S.Misses, 0u);
  EXPECT_EQ(S.Insertions, 0u);

  // The proof engine is the store's one reader: proving a spec over both
  // arms of the branch looks its side conditions up.
  seplogic::Spec Post = V.makeSpec("post");
  Post.reg(Reg("R0"), Post.evar(64, "v"));
  seplogic::Spec Entry = V.makeSpec("entry");
  const smt::Term *X = Entry.evar(64, "x");
  const smt::Term *R = Entry.evar(64, "r");
  Entry.reg(Reg("R0"), X)
      .reg(Reg("R30"), R)
      .reg(Reg("PSTATE", "Z"), Entry.evar(1, "z"))
      .instrPre(R, &Post, {});
  V.engine().registerSpec(0x1000, &Entry);
  ASSERT_TRUE(V.engine().verifyAll()) << V.engine().error();
  S = Store.stats();
  EXPECT_GT(S.Hits + S.DiskHits + S.Misses, 0u);
}
