// Edge cases and error paths across modules: boundary sizes, budget
// exhaustion, malformed inputs, and API misuse that must fail cleanly
// with the right StatusCode rather than crash or mis-answer.

#include <gtest/gtest.h>

#include "algebra/word_algebra.h"
#include "common/rng.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "eval/certificate.h"
#include "eval/eso_eval.h"
#include "eval/naive_eval.h"
#include "eval/reference_eval.h"
#include "logic/builder.h"
#include "logic/parser.h"
#include "reductions/qbf.h"
#include "reductions/sat_to_eso.h"

namespace bvq {
namespace {

TEST(EdgeCaseTest, IffTruthTable) {
  Database db(2);
  ASSERT_TRUE(db.AddRelation("P", Relation::FromTuples(1, {{1}})).ok());
  BoundedEvaluator eval(db, 2);
  // P(x1) <-> P(x2): both in or both out.
  auto r = eval.Evaluate(*ParseFormula("P(x1) <-> P(x2)"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->TestAssignment({0, 0}));
  EXPECT_TRUE(r->TestAssignment({1, 1}));
  EXPECT_FALSE(r->TestAssignment({0, 1}));
  EXPECT_FALSE(r->TestAssignment({1, 0}));
}

TEST(EdgeCaseTest, SingleElementDomain) {
  Database db(1);
  ASSERT_TRUE(db.AddRelation("E", Relation::FromTuples(2, {{0, 0}})).ok());
  BoundedEvaluator eval(db, 3);
  auto tc = ParseFormula(
      "[lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & exists x1 . "
      "(x1 = x3 & T(x1,x2)))](x1,x2)");
  auto r = eval.Evaluate(*tc);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsFull());
}

TEST(EdgeCaseTest, EmptyDatabaseDomain) {
  // n = 0: D^k has n^k = 0 points for k >= 1; everything is trivially
  // empty but must not crash.
  Database db(0);
  BoundedEvaluator eval(db, 2);
  auto r = eval.Evaluate(True());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Count(), 0u);
  // Quantifier sweeps over an empty cube (stride n^1 = 0 along x2).
  for (const char* text : {"exists x2 . x1 = x2", "forall x1 . x1 = x2"}) {
    auto q = eval.Evaluate(*ParseFormula(text));
    ASSERT_TRUE(q.ok()) << text;
    EXPECT_EQ(q->Count(), 0u) << text;
  }
}

TEST(EdgeCaseTest, ZeroVariableFormulas) {
  Database db(3);
  ASSERT_TRUE(db.AddRelation("flag", Relation::Proposition(true)).ok());
  BoundedEvaluator eval(db, 0);  // k = 0: the cube is a single point
  auto r = eval.Evaluate(*ParseFormula("flag & !(false)"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Count(), 1u);
}

TEST(EdgeCaseTest, AnswerVarOutOfRange) {
  Database db(2);
  BoundedEvaluator eval(db, 1);
  Query q;
  q.formula = True();
  q.answer_vars = {5};
  auto r = eval.EvaluateQuery(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(EdgeCaseTest, EvaluatorIsReusableAcrossFormulas) {
  Database db(3);
  ASSERT_TRUE(db.AddRelation("E", PathGraph(3)).ok());
  BoundedEvalOptions opts;
  opts.fixpoint_strategy = FixpointStrategy::kMonotoneReuse;
  BoundedEvaluator eval(db, 2, opts);
  auto a = eval.Evaluate(*ParseFormula(
      "[lfp T(x1) . E(x1,x2) | T(x1)](x1)"));
  ASSERT_TRUE(a.ok());
  // A second evaluation (different formula, same evaluator) must not be
  // polluted by the first call's warm cache.
  auto b = eval.Evaluate(*ParseFormula(
      "[gfp T(x1) . E(x1,x2) & T(x1)](x1)"));
  ASSERT_TRUE(b.ok());
  ReferenceEvaluator ref(db, 2);
  auto expected = ref.SatisfyingAssignments(*ParseFormula(
      "[gfp T(x1) . E(x1,x2) & T(x1)](x1)"));
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(b->ToRelation({0, 1}), *expected);
}

TEST(EdgeCaseTest, EsoConflictBudget) {
  // A pigeonhole-flavored ESO instance with a tiny conflict budget must
  // surface ResourceExhausted, not a wrong answer.
  Rng rng(4);
  sat::Cnf cnf;
  cnf.num_vars = 30;
  for (int p = 0; p < 6; ++p) {
    sat::Clause c;
    for (int h = 0; h < 5; ++h) c.push_back(sat::Lit(p * 5 + h, false));
    cnf.AddClause(c);
  }
  for (int h = 0; h < 5; ++h) {
    for (int p1 = 0; p1 < 6; ++p1) {
      for (int p2 = p1 + 1; p2 < 6; ++p2) {
        cnf.AddBinary(sat::Lit(p1 * 5 + h, true),
                      sat::Lit(p2 * 5 + h, true));
      }
    }
  }
  auto eso = PropositionalToEso(CnfToFormula(cnf));
  ASSERT_TRUE(eso.ok());
  EsoEvalOptions opts;
  opts.solver.max_conflicts = 2;
  Database db = TrivialDatabase();
  EsoEvaluator eval(db, 1, opts);
  auto r = eval.HoldsSentence(*eso);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EdgeCaseTest, NaiveQuantifierOverAbsentVariable) {
  Database db(3);
  ASSERT_TRUE(db.AddRelation("P", Relation::FromTuples(1, {{1}})).ok());
  NaiveEvaluator eval(db);
  // exists x2 / forall x2 over a formula not mentioning x2.
  auto e = eval.Evaluate(*ParseFormula("exists x2 . P(x1)"));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->rel, Relation::FromTuples(1, {{1}}));
  auto a = eval.Evaluate(*ParseFormula("forall x2 . P(x1)"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->rel, Relation::FromTuples(1, {{1}}));
}

TEST(EdgeCaseTest, WordAlgebraExactly64Points) {
  // n = 8, k = 2: n^k = 64, the word boundary.
  Database db(8);
  Rng rng(5);
  ASSERT_TRUE(db.AddRelation("E", RandomRelation(8, 2, 0.3, rng)).ok());
  auto algebra = WordAlgebraEvaluator::Create(db, 2);
  ASSERT_TRUE(algebra.ok());
  EXPECT_EQ(algebra->full_mask(), ~uint64_t{0});
  auto f = ParseFormula("E(x1,x2) | !(E(x1,x2))");
  auto mask = algebra->Evaluate(*f);
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ(*mask, ~uint64_t{0});
  // And one past the boundary fails cleanly.
  Database big(9);
  EXPECT_FALSE(WordAlgebraEvaluator::Create(big, 2).ok());
}

TEST(EdgeCaseTest, RelationFullArityZero) {
  auto r = Relation::Full(0, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);  // the empty tuple
  EXPECT_TRUE(r->AsBool());
}

TEST(EdgeCaseTest, DatabaseRelationReplacement) {
  Database db(3);
  ASSERT_TRUE(db.AddRelation("R", Relation::FromTuples(1, {{0}})).ok());
  ASSERT_TRUE(db.AddRelation("R", Relation::FromTuples(1, {{1}, {2}})).ok());
  EXPECT_EQ((*db.GetRelation("R"))->size(), 2u);
}

TEST(EdgeCaseTest, CertificateShapeErrors) {
  Database db(3);
  ASSERT_TRUE(db.AddRelation("E", PathGraph(3)).ok());
  CertificateSystem sys(db, 2);
  auto f = ParseFormula("[gfp S(x1) . S(x1) & E(x1,x2)](x1)");
  auto cert = sys.Generate(*f);
  ASSERT_TRUE(cert.ok());
  // A gfp certificate with two chain entries is malformed.
  FormulaCertificate two = *cert;
  two.roots[0].chain.push_back(two.roots[0].chain[0]);
  two.roots[0].step_children.push_back({});
  EXPECT_FALSE(sys.Verify(*f, two).ok());
  // Extra roots are rejected.
  FormulaCertificate extra = *cert;
  extra.roots.push_back(extra.roots[0]);
  EXPECT_FALSE(sys.Verify(*f, extra).ok());
}

TEST(EdgeCaseTest, EmptyQbfPrefix) {
  auto qbf = ParseQbf(" : true & !(false)");
  ASSERT_TRUE(qbf.ok()) << qbf.status().ToString();
  EXPECT_TRUE(*SolveQbf(*qbf));
  auto pfp = QbfToPfp(*qbf);
  ASSERT_TRUE(pfp.ok());
  Database b0 = QbfFixedDatabase();
  BoundedEvaluator eval(b0, 1);
  auto r = eval.Evaluate(*pfp);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsFull());
}

TEST(EdgeCaseTest, FixpointShadowingOuterBinding) {
  // Inner fixpoint reuses the outer's relation-variable name; the inner
  // binding must shadow and the outer must be restored afterwards.
  Database db(3);
  ASSERT_TRUE(db.AddRelation("E", PathGraph(3)).ok());
  auto f = ParseFormula(
      "[lfp T(x1) . E(x1,x1) | [lfp T(x2) . E(x2,x1) | T(x2)](x1) "
      "| T(x1)](x1)");
  ASSERT_TRUE(f.ok());
  ReferenceEvaluator ref(db, 2);
  auto expected = ref.SatisfyingAssignments(*f);
  ASSERT_TRUE(expected.ok());
  BoundedEvaluator eval(db, 2);
  auto r = eval.Evaluate(*f);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToRelation({0, 1}), *expected);
}

TEST(EdgeCaseTest, PfpWithAllVariablesBound) {
  // m == k: a single parameter block.
  Database db(2);
  BoundedEvaluator eval(db, 2);
  auto r = eval.Evaluate(
      *ParseFormula("[pfp X(x1,x2) . !(X(x1,x2))](x1,x2)"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Empty());
}

TEST(EdgeCaseTest, SecondOrderZeroAryInBoundedEvaluator) {
  Database db(2);
  BoundedEvaluator eval(db, 1);
  auto t = eval.Evaluate(*ParseFormula("exists2 S/0 . S"));
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->IsFull());
  auto f = eval.Evaluate(*ParseFormula("exists2 S/0 . S & !(S)"));
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->Empty());
}

}  // namespace
}  // namespace bvq
