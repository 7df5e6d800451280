// Differential fuzzing: one wide randomized sweep where every applicable
// engine evaluates the same formula on the same database and all answers
// must coincide. This is the repository's strongest single guarantee:
// the engines share no evaluation code with the reference semantics
// (and little with each other), so agreement across hundreds of random
// (formula, database) pairs pins the semantics down tightly.
//
// Engines compared per formula, depending on its fragment:
//   - ReferenceEvaluator (definitional ground truth, always)
//   - BoundedEvaluator, naive nested fixpoints (always)
//   - BoundedEvaluator, monotone-reuse strategy (always)
//   - BoundedEvaluator, memo disabled, randomized strategy and thread
//     count (always; every engine above runs with the default memo on)
//   - BoundedEvaluator, Floyd PFP mode (when the formula has a pfp)
//   - NaiveEvaluator (FO only)
//   - WordAlgebraEvaluator (FO only, n^k <= 64)
//   - NNF-rewritten formula through BoundedEvaluator (no ESO)
//   - CertificateSystem generate+verify (NNF, lfp/gfp only)

#include <gtest/gtest.h>

#include <algorithm>

#include "algebra/word_algebra.h"
#include "common/rng.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "eval/certificate.h"
#include "eval/eso_eval.h"
#include "eval/naive_eval.h"
#include "eval/reference_eval.h"
#include "logic/analysis.h"
#include "logic/builder.h"
#include "logic/nnf.h"
#include "logic/parser.h"
#include "logic/random_formula.h"
#include "sat/cnf.h"
#include "sat/solver.h"

namespace bvq {
namespace {

struct FuzzCase {
  std::size_t num_vars;
  bool fixpoints;
  bool pfp;
  bool ifp;
  uint64_t seed;
};

class DifferentialFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DifferentialFuzz, AllEnginesAgree) {
  const FuzzCase param = GetParam();
  Rng rng(param.seed);
  RandomFormulaOptions opts;
  opts.num_vars = param.num_vars;
  opts.max_size = 18;
  opts.predicates = {{"E", 2}, {"P", 1}};
  opts.allow_fixpoints = param.fixpoints;
  opts.allow_pfp = param.pfp;
  opts.allow_ifp = param.ifp;

  std::vector<std::size_t> all_vars(param.num_vars);
  for (std::size_t j = 0; j < param.num_vars; ++j) all_vars[j] = j;

  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.Below(3);
    Database db(n);
    ASSERT_TRUE(db.AddRelation("E", RandomRelation(n, 2, 0.35, rng)).ok());
    ASSERT_TRUE(db.AddRelation("P", RandomRelation(n, 1, 0.5, rng)).ok());
    FormulaPtr f = RandomFormula(opts, rng);
    const std::string dump = FormulaToString(f) + "\n" + db.ToString();
    LanguageClass cls = ClassifyLanguage(f);

    // Ground truth.
    ReferenceEvaluator ref(db, param.num_vars);
    auto truth = ref.EvaluateQuery(Query{all_vars, f});
    ASSERT_TRUE(truth.ok()) << dump;

    // Bounded, both fixpoint strategies.
    BoundedEvaluator naive_fp(db, param.num_vars);
    auto b1 = naive_fp.EvaluateQuery(Query{all_vars, f});
    ASSERT_TRUE(b1.ok()) << dump;
    EXPECT_EQ(*b1, *truth) << "bounded/naive differs\n" << dump;

    BoundedEvalOptions mono;
    mono.fixpoint_strategy = FixpointStrategy::kMonotoneReuse;
    BoundedEvaluator reuse(db, param.num_vars, mono);
    auto b2 = reuse.EvaluateQuery(Query{all_vars, f});
    ASSERT_TRUE(b2.ok()) << dump;
    EXPECT_EQ(*b2, *truth) << "bounded/reuse differs\n" << dump;

    // Memo kill switch: disabling the dependency-aware memo must not
    // change any answer. Randomize the rest of the configuration so the
    // flag is exercised against both fixpoint strategies and several
    // thread counts across the sweep.
    BoundedEvalOptions nomemo;
    nomemo.memo = false;
    nomemo.fixpoint_strategy = rng.Below(2) == 0
                                   ? FixpointStrategy::kNaiveNested
                                   : FixpointStrategy::kMonotoneReuse;
    nomemo.num_threads = 1 + rng.Below(4);
    BoundedEvaluator nm(db, param.num_vars, nomemo);
    auto b_nomemo = nm.EvaluateQuery(Query{all_vars, f});
    ASSERT_TRUE(b_nomemo.ok()) << dump;
    EXPECT_EQ(*b_nomemo, *truth) << "bounded/memo-off differs\n" << dump;

    // Floyd PFP mode.
    if (param.pfp) {
      BoundedEvalOptions floyd;
      floyd.pfp_cycle_detection = PfpCycleDetection::kFloyd;
      BoundedEvaluator fe(db, param.num_vars, floyd);
      auto b3 = fe.EvaluateQuery(Query{all_vars, f});
      ASSERT_TRUE(b3.ok()) << dump;
      EXPECT_EQ(*b3, *truth) << "bounded/floyd differs\n" << dump;
    }

    // Classical evaluator and word algebra on the FO fragment.
    if (cls.first_order) {
      NaiveEvaluator nv(db);
      auto c = nv.EvaluateQuery(Query{all_vars, f});
      ASSERT_TRUE(c.ok()) << dump;
      EXPECT_EQ(*c, *truth) << "classical differs\n" << dump;

      auto algebra = WordAlgebraEvaluator::Create(db, param.num_vars);
      if (algebra.ok()) {
        auto mask = algebra->Evaluate(f);
        ASSERT_TRUE(mask.ok()) << dump;
        EXPECT_EQ(algebra->MaskToRelation(*mask, all_vars), *truth)
            << "word algebra differs\n"
            << dump;
      }
    }

    // NNF preserves the answer.
    auto nnf = NegationNormalForm(f);
    ASSERT_TRUE(nnf.ok()) << dump;
    auto b4 = naive_fp.EvaluateQuery(Query{all_vars, *nnf});
    ASSERT_TRUE(b4.ok()) << dump;
    EXPECT_EQ(*b4, *truth) << "NNF differs\n" << dump;

    // Certificates reproduce the exact answer on the certifiable
    // fragment (lfp/gfp only).
    if (cls.fixpoint || cls.first_order) {
      LanguageClass nnf_cls = ClassifyLanguage(*nnf);
      if (nnf_cls.fixpoint || nnf_cls.first_order) {
        CertificateSystem sys(db, param.num_vars);
        auto cert = sys.Generate(*nnf);
        if (cert.ok()) {
          auto verified = sys.Verify(*nnf, *cert);
          ASSERT_TRUE(verified.ok()) << dump;
          EXPECT_EQ(verified->ToRelation(all_vars), *truth)
              << "certificate differs\n"
              << dump;
        }
      }
    }
  }
}

// One solver instance answers a batch of assumption queries against the
// same CNF — the exact access pattern of the incremental ESO sweep — and
// every verdict must match a fresh brute-force enumeration, including the
// UNSAT-under-assumptions cases and the reported failed-assumption subset.
TEST(SatDifferentialFuzz, CdclWithAssumptionsAgreesWithBruteForce) {
  Rng rng(4242);
  int sat_count = 0, unsat_count = 0;
  for (int trial = 0; trial < 60; ++trial) {
    sat::Cnf cnf;
    const int num_vars = 6 + static_cast<int>(rng.Below(10));  // <= 15
    cnf.num_vars = num_vars;
    const int num_clauses = 3 * num_vars + static_cast<int>(rng.Below(16));
    for (int c = 0; c < num_clauses; ++c) {
      sat::Clause clause;
      for (int j = 0; j < 3; ++j) {
        clause.push_back(sat::Lit(static_cast<int>(rng.Below(num_vars)),
                                  rng.Bernoulli(0.5)));
      }
      cnf.AddClause(clause);
    }
    sat::Solver solver;
    for (int query = 0; query < 5; ++query) {
      std::vector<sat::Lit> assumptions;
      const std::size_t count = rng.Below(5);
      for (std::size_t j = 0; j < count; ++j) {
        assumptions.push_back(sat::Lit(
            static_cast<int>(rng.Below(num_vars)), rng.Bernoulli(0.5)));
      }
      auto fast = solver.Solve(cnf, assumptions);
      auto slow = sat::SolveBruteForce(cnf, assumptions);
      ASSERT_TRUE(slow.ok());
      ASSERT_EQ(fast.status, slow->status) << cnf.ToDimacs();
      if (fast.status == sat::SolveStatus::kSat) {
        ++sat_count;
        EXPECT_TRUE(Satisfies(cnf, fast.model));
        for (sat::Lit a : assumptions) {
          EXPECT_TRUE(sat::LitTrueIn(fast.model, a));
        }
      } else {
        ++unsat_count;
        for (sat::Lit l : fast.failed_assumptions) {
          EXPECT_TRUE(std::find(assumptions.begin(), assumptions.end(), l) !=
                      assumptions.end());
        }
        auto core = sat::SolveBruteForce(cnf, fast.failed_assumptions);
        ASSERT_TRUE(core.ok());
        EXPECT_EQ(core->status, sat::SolveStatus::kUnsat);
      }
    }
  }
  EXPECT_GT(sat_count, 20);
  EXPECT_GT(unsat_count, 20);
}

// The incremental ESO sweep (one grounding, one solver, assumption-based
// re-solves) must return byte-identical answer sets to the scratch
// baseline at every thread count, and both must match the reference
// enumeration.
TEST(EsoDifferentialFuzz, IncrementalMatchesScratch) {
  Rng rng(271);
  RandomFormulaOptions opts;
  opts.num_vars = 2;
  opts.max_size = 12;
  opts.predicates = {{"E", 2}, {"P", 1}, {"S", 1}, {"T", 2}};
  opts.allow_fixpoints = false;

  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 2 + rng.Below(2);
    Database db(n);
    ASSERT_TRUE(db.AddRelation("E", RandomRelation(n, 2, 0.35, rng)).ok());
    ASSERT_TRUE(db.AddRelation("P", RandomRelation(n, 1, 0.5, rng)).ok());
    // Random FO matrix over E, P and the quantified S, T, closed under a
    // second-order existential prefix.
    FormulaPtr f =
        SoExists("S", 1, SoExists("T", 2, RandomFormula(opts, rng)));
    const std::string dump = FormulaToString(f) + "\n" + db.ToString();

    ReferenceEvaluator ref(db, 2);
    auto truth = ref.SatisfyingAssignments(f);
    ASSERT_TRUE(truth.ok()) << dump;

    EsoEvalOptions inc_opts;
    inc_opts.incremental = true;
    EsoEvaluator inc(db, 2, inc_opts);
    auto a = inc.Evaluate(f);
    ASSERT_TRUE(a.ok()) << dump;
    EXPECT_EQ(a->ToRelation({0, 1}), *truth) << "eso/incremental differs\n"
                                             << dump;

    for (std::size_t threads : {1u, 2u, 4u}) {
      EsoEvalOptions scratch_opts;
      scratch_opts.incremental = false;
      scratch_opts.num_threads = threads;
      EsoEvaluator scratch(db, 2, scratch_opts);
      auto b = scratch.Evaluate(f);
      ASSERT_TRUE(b.ok()) << dump;
      EXPECT_EQ(*a, *b) << "eso/scratch(threads=" << threads
                        << ") differs\n"
                        << dump;
    }
  }
}

// gtest names each case by the bytes of its FuzzCase, padding included. A
// static array is zero-initialized, padding and all, so the names are the
// same on every run; temporaries in ::testing::Values() would leave stack
// garbage in the padding and make the names differ between runs.
constexpr FuzzCase kFuzzCases[] = {
    {2, false, false, false, 11}, {3, false, false, false, 12},
    {2, true, false, false, 13},  {3, true, false, false, 14},
    {2, true, true, false, 15},   {2, true, false, true, 16},
    {2, true, true, true, 17},    {3, true, true, true, 18}};

INSTANTIATE_TEST_SUITE_P(Sweep, DifferentialFuzz,
                         ::testing::ValuesIn(kFuzzCases));

}  // namespace
}  // namespace bvq
