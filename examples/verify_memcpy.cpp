//===- examples/verify_memcpy.cpp - The Fig. 7/8 verification -------------------===//
//
// Runs the full memcpy case study on both architectures (the §2.5 / §2.7
// demonstration): GCC-shaped Armv8-A code and Clang-shaped RISC-V code,
// verified against the Fig. 8 specification with a loop invariant at the
// copy loop head.  Prints the per-phase statistics the paper's Fig. 12
// reports for this example.
//
// Build & run:  ./build/examples/verify_memcpy [byte count]
//
//===----------------------------------------------------------------------===//

#include "frontend/CaseStudies.h"
#include "support/Parse.h"

#include <cstdio>

using islaris::frontend::CaseResult;

static void report(const CaseResult &R) {
  std::printf("%-8s %-4s : %s\n", R.Name.c_str(), R.Isa.c_str(),
              R.Ok ? "VERIFIED" : ("FAILED: " + R.Error).c_str());
  if (!R.Ok)
    return;
  std::printf("  asm instructions : %u\n", R.AsmInstrs);
  std::printf("  ITL events       : %u\n", R.ItlEvents);
  std::printf("  spec size        : %u chunks/binders\n", R.SpecSize);
  std::printf("  manual hints     : %u\n", R.Hints);
  std::printf("  symbolic exec    : %.3fs\n", R.IslaSeconds);
  std::printf("  sep-logic auto   : %.3fs (%u events, %u paths)\n",
              R.Proof.automationSeconds(), R.Proof.EventsProcessed,
              R.Proof.PathsVerified);
  std::printf("  side conditions  : %.3fs (%llu solver queries)\n\n",
              R.Proof.SideCondSeconds,
              (unsigned long long)R.Proof.SolverQueries);
}

/// Bounds the byte count: each byte is a symbolic value in the proof.
constexpr uint64_t MaxBytes = 1024;

int main(int argc, char **argv) {
  unsigned N = 4;
  if (argc > 1 && !islaris::support::parseUnsigned(argv[1], MaxBytes, N)) {
    std::fprintf(stderr,
                 "bad byte count '%s' (want a decimal number up to %llu)\n",
                 argv[1], (unsigned long long)MaxBytes);
    return 2;
  }
  std::printf("Verifying memcpy over %u symbolic bytes with symbolic "
              "source/destination addresses.\n\n",
              N);
  report(islaris::frontend::runMemcpyArm(N));
  report(islaris::frontend::runMemcpyRv(N));
  return 0;
}
