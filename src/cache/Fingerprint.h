//===- cache/Fingerprint.h - Content-addressed trace-cache keys -*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical cache keys for symbolic-execution results.  The real Isla tool
/// amortises trace generation with an on-disk cache keyed by the opcode and
/// execution configuration; this header provides the key derivation for our
/// reproduction: a stable 128-bit fingerprint over
///
///   - the architecture name,
///   - the opcode bits and symbolic-bit mask,
///   - the full Assumptions set (concrete values verbatim; constraint
///     predicates rendered through the SMT term printer against a scratch
///     builder, so structurally equal predicates key equal),
///   - the ExecOptions knobs, and
///   - a fingerprint of the mini-Sail model source.
///
/// The hash itself is support::Fingerprinter.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_CACHE_FINGERPRINT_H
#define ISLARIS_CACHE_FINGERPRINT_H

#include "isla/Executor.h"
#include "support/Fingerprint.h"

#include <cstdint>
#include <string>

namespace islaris::cache {

using support::Fingerprint;
using support::FingerprintHash;
using support::Fingerprinter;

/// Fingerprint of a resolved mini-Sail model, derived from its printed
/// source (sail::printModel), memoized by model identity.  Thread-safe.
Fingerprint fingerprintModel(const sail::Model &M);

/// The canonical trace-cache key for one symbolic execution
/// Executor::run(Op, A, Opts) against \p M.  Two executions with equal keys
/// produce identical traces up to variable numbering, which the serialized
/// representation normalizes away (see TraceCache).
Fingerprint traceCacheKey(const std::string &ArchName, const sail::Model &M,
                          const isla::OpcodeSpec &Op,
                          const isla::Assumptions &A,
                          const isla::ExecOptions &Opts);

} // namespace islaris::cache

#endif // ISLARIS_CACHE_FINGERPRINT_H
