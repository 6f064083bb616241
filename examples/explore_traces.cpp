//===- examples/explore_traces.cpp - Interactive Isla exploration ----------------===//
//
// The "interactive exploration using Isla" workflow of §2.8 as a CLI:
// give an opcode (hex) and optional register assumptions, get the ITL
// trace.  Examples:
//
//   explore_traces arm 0x910103ff PSTATE.EL=2 PSTATE.SP=1
//   explore_traces arm 0x910103ff            # five banked-SP cases
//   explore_traces rv  0x00b50633            # add a2, a0, a1
//
//===----------------------------------------------------------------------===//

#include "frontend/Verifier.h"
#include "isla/Executor.h"
#include "models/Models.h"
#include "support/Parse.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

using namespace islaris;

int main(int argc, char **argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <arm|rv> <opcode-hex> [REG=VAL | REG.FIELD=VAL "
                 "...]\n",
                 argv[0]);
    return 2;
  }
  bool Arm = std::strcmp(argv[1], "arm") == 0;
  const sail::Model &M =
      Arm ? models::aarch64Model() : models::rv64Model();
  std::string_view OpText = argv[2];
  if (OpText.substr(0, 2) == "0x" || OpText.substr(0, 2) == "0X")
    OpText.remove_prefix(2);
  uint64_t Opcode = 0;
  if (!support::parseHex(OpText, UINT32_MAX, Opcode)) {
    std::fprintf(stderr, "bad opcode '%s' (want up to 8 hex digits)\n",
                 argv[2]);
    return 2;
  }

  isla::Assumptions A;
  for (int I = 3; I < argc; ++I) {
    std::string Arg = argv[I];
    size_t Eq = Arg.find('=');
    if (Eq == std::string::npos) {
      std::fprintf(stderr, "bad assumption '%s' (want REG=VAL)\n",
                   argv[I]);
      return 2;
    }
    std::string RegName = Arg.substr(0, Eq);
    uint64_t Val = 0;
    if (!support::parseInteger(std::string_view(Arg).substr(Eq + 1),
                               UINT64_MAX, Val)) {
      std::fprintf(stderr, "bad value in '%s' (want decimal or 0x hex)\n",
                   argv[I]);
      return 2;
    }
    itl::Reg R;
    size_t Dot = RegName.find('.');
    if (Dot == std::string::npos)
      R = itl::Reg(RegName);
    else
      R = itl::Reg(RegName.substr(0, Dot), RegName.substr(Dot + 1));
    const sail::RegisterDecl *RD = M.findRegister(R.Base);
    if (!RD) {
      std::fprintf(stderr, "unknown register %s\n", R.Base.c_str());
      return 2;
    }
    unsigned W = R.hasField() ? RD->fieldWidth(R.Field) : RD->Width;
    if (W < 64 && Val >> W) {
      std::fprintf(stderr, "value in '%s' does not fit %u bits\n", argv[I],
                   W);
      return 2;
    }
    A.assume(R, BitVec(W, Val));
  }

  smt::TermBuilder TB;
  isla::Executor Ex(M, TB);
  isla::ExecResult R =
      Ex.run(isla::OpcodeSpec::concrete(uint32_t(Opcode)), A);
  if (!R.Ok) {
    std::fprintf(stderr, "symbolic execution failed: %s\n",
                 R.Error.c_str());
    return 1;
  }
  std::printf("%s\n", R.Trace.toString().c_str());
  std::fprintf(stderr,
               "; %u events, %u path(s), %u branch(es) pruned, "
               "%u solver queries\n",
               R.Stats.Events, R.Stats.Paths, R.Stats.PrunedBranches,
               R.Stats.SolverQueries);
  return 0;
}
