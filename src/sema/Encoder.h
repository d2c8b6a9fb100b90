//===- sema/Encoder.h - IR -> SMT function encoding -------------*- C++ -*-==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encodes one (already unrolled, acyclic) IR function into SMT following
/// Sections 3, 4 and 6 of the paper: per-register (value, ispoison) pairs
/// with per-use undef refresh, flow-sensitive block domains with no path
/// forking, a UB accumulator, byte-granular memory, and unknown calls as
/// uninterpreted functions keyed by (memory version, arguments) so that
/// matching source/target calls agree by congruence.
///
/// Quantifier roles: variables named "in.*"/"blocksize.*" plus the shared
/// memory applications are inputs I (common to both functions); variables
/// registered in FunctionEncoding::NondetVars are that side's
/// nondeterminism N (undef instances, freeze picks, NaN bit patterns, nsz
/// zero signs, and the side-tagged local block sizes).
///
//===----------------------------------------------------------------------===//

#ifndef ALIVE2RE_SEMA_ENCODER_H
#define ALIVE2RE_SEMA_ENCODER_H

#include "sema/Memory.h"

#include <memory>
#include <unordered_set>

namespace alive::sema {

struct EncodeOptions {
  /// Symbol tag for this side's nondeterminism ("src", "tgt", "srcI", ...).
  std::string Tag = "src";
  /// Equivalence-baseline mode (ablation E7): no UB, no poison, pinned
  /// undef. This reproduces a naive translation validator without deferred
  /// UB support.
  bool IgnoreUB = false;
};

/// One call site's record, used for the "no introduced calls" check.
struct CallRecord {
  std::string Callee;
  smt::Expr Dom;
  smt::Expr Version;
  std::vector<smt::Expr> Args; // flattened values and poison flags
};

/// One nondeterministic choice and where it comes from. Choices of two
/// encodings with the same origin stand for the same source of
/// nondeterminism, which the refinement layer uses to seed instantiations.
struct Choice {
  smt::Expr Var;
  /// "in.<arg>.<lane>" for an argument's undef instance, "blocksize.<bid>"
  /// for a local block size, otherwise "<kind>#<ordinal>" (undef, freeze,
  /// nsz, nanbits, nansign) counted per kind in creation order. A copy
  /// made by the per-use undef refresh keeps the origin of the instance it
  /// replaces.
  std::string Origin;
};

/// The result of encoding a function.
struct FunctionEncoding {
  bool Valid = true;
  std::string UnsupportedReason;

  /// Precondition over the inputs (argument attributes, pointer-argument
  /// block validity). Sink-domain negation is added by the refinement layer.
  smt::Expr Pre = smt::mkTrue();
  /// Semantic axioms (exact FP special cases, etc.) to conjoin with this
  /// side's execution formula.
  std::vector<smt::Expr> Axioms;
  /// Domain-weighted immediate-UB condition.
  smt::Expr UB = smt::mkFalse();
  /// Domain of the unroller's sink blocks (negated into the precondition).
  smt::Expr SinkDomain = smt::mkFalse();
  /// Domain of reaching some ret instruction.
  smt::Expr RetDomain = smt::mkFalse();
  /// Merged return value (empty for void functions).
  EncodedValue RetVal;
  /// Final memory state.
  std::shared_ptr<Memory> Mem;
  std::vector<CallRecord> Calls;

  std::unordered_set<smt::ExprId> NondetVars;
  /// The same variables with their origins, in creation order. Most are
  /// refresh placeholders that no formula mentions.
  std::vector<Choice> Choices;
  /// Shared input variables (arguments etc).
  std::unordered_set<smt::ExprId> InputVars;
  /// Uninterpreted-function names whose presence in a counterexample means
  /// the result is an over-approximation (Section 3.8), not a proven bug.
  std::unordered_set<std::string> ApproxFnNames;
  std::vector<std::string> ApproxNotes;
};

/// Encodes \p F. The function must be loop-free (run the unroller first);
/// \p Sinks are the unroller's sink blocks.
FunctionEncoding
encodeFunction(const ir::Function &F, const MemoryLayout &L,
               const std::unordered_set<const ir::BasicBlock *> &Sinks,
               const EncodeOptions &Opts);

} // namespace alive::sema

#endif // ALIVE2RE_SEMA_ENCODER_H
