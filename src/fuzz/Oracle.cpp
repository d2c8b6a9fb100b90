//===- fuzz/Oracle.cpp - Metamorphic verification oracles ------------------==//
//
// Part of the alive2re project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/Pass.h"
#include "refine/Validator.h"
#include "smt/Expr.h"
#include "support/Profile.h"
#include "support/Stats.h"

using namespace alive;
using namespace alive::fuzz;

ALIVE_STAT_COUNTER(CtrVerify, "fuzz.oracle.verifications");
ALIVE_STAT_COUNTER(CtrChecks, "fuzz.oracle.checks");
ALIVE_STAT_COUNTER(CtrFails, "fuzz.oracle.failures");

namespace {

const ir::Function *lastDefined(const ir::Module &M) {
  for (unsigned I = M.numFunctions(); I > 0; --I)
    if (!M.function(I - 1)->isDeclaration())
      return M.function(I - 1);
  return nullptr;
}

bool conclusive(const refine::Verdict &V) {
  return V.Kind == refine::VerdictKind::Correct ||
         V.Kind == refine::VerdictKind::Incorrect;
}

std::string describe(const refine::Verdict &V) {
  std::string S = V.kindName();
  if (!V.FailedCheck.empty())
    S += " [" + V.FailedCheck + "]";
  if (!V.Detail.empty())
    S += ": " + V.Detail;
  return S;
}

/// Base options every oracle starts from: semantics knobs from the config,
/// but no cache and no retry ladder so each check is self-contained (the
/// cache/retry oracles opt back in deliberately).
refine::Options baseOpts(const Oracle::Config &C) {
  refine::Options O = C.Opts;
  O.Cache = refine::CachePolicy::disabled();
  O.Retry = refine::RetryPolicy();
  return O;
}

} // namespace

Oracle::Oracle(Config Cfg) : C(std::move(Cfg)) {
  if (C.Pipeline.empty())
    C.Pipeline = opt::defaultPipeline();
}

std::string Oracle::deriveTarget(const std::string &SrcIR) {
  prof::Span Sp("fuzz_derive_target");
  Diag Err;
  auto M = ir::parseModule(SrcIR, Err);
  if (!M)
    return "";
  opt::runPipeline(*M, C.Pipeline);
  return ir::printModule(*M);
}

refine::Verdict Oracle::verify(const std::string &SrcIR,
                               const std::string &TgtIR,
                               const refine::Options &Opts, unsigned Jobs) {
  CtrVerify.inc();

  refine::Verdict V; // Kind defaults to Failed
  Diag E1, E2;
  auto SrcM = ir::parseModule(SrcIR, E1);
  if (!SrcM) {
    V.Detail = "source does not parse: " + E1.str();
    return V;
  }
  auto TgtM = ir::parseModule(TgtIR, E2);
  if (!TgtM) {
    V.Detail = "target does not parse: " + E2.str();
    return V;
  }
  const ir::Function *SF = lastDefined(*SrcM);
  const ir::Function *TF = SF ? TgtM->functionByName(SF->name()) : nullptr;
  if (!SF || !TF) {
    V.Detail = "no matching function pair";
    return V;
  }
  refine::Validator Val(Opts);
  if (Jobs <= 1) {
    smt::resetContext();
    return Val.verifyPair(*SF, *TF, SrcM.get());
  }
  std::vector<refine::Validator::PairTask> Tasks{
      {SF, TF, SrcM.get(), std::string()}};
  auto Results = Val.verifyBatch(Tasks, Jobs);
  if (Results.empty()) {
    V.Detail = "batch returned no result";
    return V;
  }
  return Results[0].V;
}

refine::Verdict Oracle::baseVerdict(const std::string &Src,
                                    const std::string &Tgt) {
  if (BaseMemo.Valid && BaseMemo.Src == Src && BaseMemo.Tgt == Tgt)
    return BaseMemo.V;
  refine::Verdict V = verify(Src, Tgt, baseOpts(C));
  BaseMemo = {Src, Tgt, V, true};
  return V;
}

bool Oracle::checkSelfRefine(const std::string &Src, std::string &Detail) {
  refine::Verdict V = verify(Src, Src, baseOpts(C));
  if (V.isIncorrect() || V.Kind == refine::VerdictKind::Failed) {
    Detail = "function does not refine itself: " + describe(V);
    return true;
  }
  return false;
}

bool Oracle::checkPairSound(const std::string &Src, const std::string &Tgt,
                            std::string &Detail) {
  if (Tgt.empty()) {
    Detail = "pipeline produced no target (source does not parse?)";
    return true;
  }
  {
    Diag VErr;
    auto TgtM = ir::parseModule(Tgt, VErr);
    if (!TgtM || !ir::verifyModule(*TgtM, VErr)) {
      Detail = "pipeline output is malformed: " + VErr.str();
      return true;
    }
  }
  refine::Verdict V = baseVerdict(Src, Tgt);
  if (V.isIncorrect() || V.Kind == refine::VerdictKind::Failed) {
    Detail = "pipeline output does not refine its input: " + describe(V);
    return true;
  }
  return false;
}

bool Oracle::checkFixpoint(const std::string &Src, std::string &Detail) {
  Diag E1;
  auto M1 = ir::parseModule(Src, E1);
  if (!M1) {
    Detail = "source does not parse: " + E1.str();
    return true;
  }
  std::string P1 = ir::printModule(*M1);
  Diag E2;
  auto M2 = ir::parseModule(P1, E2);
  if (!M2) {
    Detail = "printed module does not reparse: " + E2.str();
    return true;
  }
  std::string P2 = ir::printModule(*M2);
  if (P1 != P2) {
    Detail = "print -> parse -> print is not a fixpoint";
    return true;
  }
  return false;
}

bool Oracle::checkJobsParity(const std::string &Src, const std::string &Tgt,
                             std::string &Detail) {
  refine::Verdict V1 = baseVerdict(Src, Tgt);
  refine::Verdict VN = verify(Src, Tgt, baseOpts(C), C.ParityJobs);
  if (conclusive(V1) && conclusive(VN) && V1.Kind != VN.Kind) {
    Detail = "-j1 said " + describe(V1) + " but -j" +
             std::to_string(C.ParityJobs) + " said " + describe(VN);
    return true;
  }
  return false;
}

bool Oracle::checkCacheParity(const std::string &Src, const std::string &Tgt,
                              std::string &Detail) {
  refine::Verdict Base = baseVerdict(Src, Tgt);

  // Cold + warm through one Validator holding both cache levels.
  refine::Options Cached = baseOpts(C);
  Cached.Cache = refine::CachePolicy(); // both levels on, in-memory
  Diag E1, E2;
  auto SrcM = ir::parseModule(Src, E1);
  auto TgtM = ir::parseModule(Tgt, E2);
  if (!SrcM || !TgtM) {
    Detail = "pair does not parse: " + (SrcM ? E2 : E1).str();
    return true;
  }
  const ir::Function *SF = lastDefined(*SrcM);
  const ir::Function *TF = SF ? TgtM->functionByName(SF->name()) : nullptr;
  if (!SF || !TF) {
    Detail = "no matching function pair";
    return true;
  }
  refine::Validator Val(Cached);
  smt::resetContext();
  refine::Verdict Cold = Val.verifyPair(*SF, *TF, SrcM.get());
  smt::resetContext();
  refine::Verdict Warm = Val.verifyPair(*SF, *TF, SrcM.get());

  if (conclusive(Base) && conclusive(Cold) && Base.Kind != Cold.Kind) {
    Detail = "cache-disabled said " + describe(Base) + " but cache-cold said " +
             describe(Cold);
    return true;
  }
  if (conclusive(Cold) && conclusive(Warm) && Cold.Kind != Warm.Kind) {
    Detail = "cache-cold said " + describe(Cold) + " but cache-warm said " +
             describe(Warm);
    return true;
  }
  return false;
}

bool Oracle::checkRetryParity(const std::string &Src, const std::string &Tgt,
                              std::string &Detail) {
  refine::Verdict Off = baseVerdict(Src, Tgt);
  refine::Options Ladder = baseOpts(C);
  Ladder.Retry.MaxRungs = 2;
  Ladder.Retry.Multiplier = 4.0;
  refine::Verdict On = verify(Src, Tgt, Ladder);
  if (conclusive(Off) && conclusive(On) && Off.Kind != On.Kind) {
    Detail = "retry-off said " + describe(Off) + " but retry-on said " +
             describe(On);
    return true;
  }
  return false;
}

bool Oracle::checkUnrollMonotonic(const std::string &Src,
                                  const std::string &Tgt,
                                  std::string &Detail) {
  refine::Options Lo = baseOpts(C);
  refine::Options Hi = baseOpts(C);
  Hi.UnrollFactor = std::min(Lo.UnrollFactor * 2, 64u);
  if (Hi.UnrollFactor == Lo.UnrollFactor)
    return false;
  refine::Verdict VLo = baseVerdict(Src, Tgt);
  if (!VLo.isIncorrect())
    return false; // only Incorrect verdicts must persist at larger bounds
  refine::Verdict VHi = verify(Src, Tgt, Hi);
  if (VHi.isCorrect()) {
    Detail = "Incorrect at unroll " + std::to_string(Lo.UnrollFactor) +
             " but Correct at unroll " + std::to_string(Hi.UnrollFactor) +
             " (low-bound counterexample vanished)";
    return true;
  }
  return false;
}

std::vector<OracleFailure> Oracle::run(const std::string &SrcIR) {
  prof::Span Sp("fuzz_oracle_run");

  std::vector<OracleFailure> Out;
  auto Fail = [&](const char *Name, std::string Detail, std::string Tgt) {
    CtrFails.inc();
    Out.push_back({Name, std::move(Detail), SrcIR, std::move(Tgt)});
  };
  std::string D;

  if (C.PrintParseFixpoint) {
    CtrChecks.inc();
    if (checkFixpoint(SrcIR, D))
      Fail("print-parse-fixpoint", D, "");
  }
  // An unparseable source invalidates every pair-level oracle; the fixpoint
  // failure above already reported it.
  {
    Diag Err;
    if (!ir::parseModule(SrcIR, Err))
      return Out;
  }

  if (C.SelfRefine) {
    CtrChecks.inc();
    if (checkSelfRefine(SrcIR, D))
      Fail("self-refine", D, SrcIR);
  }

  std::string Tgt = deriveTarget(SrcIR);
  if (C.PipelineSoundness) {
    CtrChecks.inc();
    if (checkPairSound(SrcIR, Tgt, D))
      Fail("pipeline-soundness", D, Tgt);
  }
  if (C.JobsParity) {
    CtrChecks.inc();
    if (checkJobsParity(SrcIR, Tgt, D))
      Fail("jobs-parity", D, Tgt);
  }
  if (C.CacheParity) {
    CtrChecks.inc();
    if (checkCacheParity(SrcIR, Tgt, D))
      Fail("cache-parity", D, Tgt);
  }
  if (C.RetryParity) {
    CtrChecks.inc();
    if (checkRetryParity(SrcIR, Tgt, D))
      Fail("retry-parity", D, Tgt);
  }
  if (C.UnrollMonotonic) {
    CtrChecks.inc();
    if (checkUnrollMonotonic(SrcIR, Tgt, D))
      Fail("unroll-monotonic", D, Tgt);
  }
  return Out;
}

bool Oracle::fails(const std::string &OracleName, const std::string &SrcIR,
                   std::string *Detail) {
  std::string D;
  bool NeedsTarget = OracleName != "print-parse-fixpoint" &&
                     OracleName != "self-refine";
  std::string Tgt = NeedsTarget ? deriveTarget(SrcIR) : std::string();
  bool F = evalOne(OracleName, SrcIR, Tgt, D);
  if (Detail)
    *Detail = D;
  return F;
}

bool Oracle::replay(const OracleFailure &F, std::string *Detail) {
  std::string D;
  bool Failed = evalOne(F.Oracle, F.SrcIR, F.TgtIR, D);
  if (Detail)
    *Detail = D;
  return Failed;
}

bool Oracle::evalOne(const std::string &Name, const std::string &Src,
                     const std::string &Tgt, std::string &Detail) {
  if (Name == "print-parse-fixpoint")
    return checkFixpoint(Src, Detail);
  if (Name == "self-refine")
    return checkSelfRefine(Src, Detail);
  if (Name == "pipeline-soundness")
    return checkPairSound(Src, Tgt, Detail);
  if (Name == "jobs-parity")
    return checkJobsParity(Src, Tgt, Detail);
  if (Name == "cache-parity")
    return checkCacheParity(Src, Tgt, Detail);
  if (Name == "retry-parity")
    return checkRetryParity(Src, Tgt, Detail);
  if (Name == "unroll-monotonic")
    return checkUnrollMonotonic(Src, Tgt, Detail);
  Detail = "unknown oracle: " + Name;
  return false;
}
