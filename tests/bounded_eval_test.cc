#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "eval/reference_eval.h"
#include "logic/builder.h"
#include "logic/parser.h"
#include "logic/random_formula.h"

namespace bvq {
namespace {

Database GraphDb(std::size_t n, const Relation& edges) {
  Database db(n);
  Status s = db.AddRelation("E", edges);
  EXPECT_TRUE(s.ok());
  return db;
}

TEST(BoundedEvalTest, Constants) {
  Database db(3);
  BoundedEvaluator eval(db, 2);
  auto t = eval.Evaluate(True());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->IsFull());
  auto f = eval.Evaluate(False());
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->Empty());
}

TEST(BoundedEvalTest, AtomAndConnectives) {
  Database db = GraphDb(3, Relation::FromTuples(2, {{0, 1}, {1, 2}}));
  BoundedEvaluator eval(db, 2);
  auto f = ParseFormula("E(x1,x2) & !(x1 = x2)");
  auto r = eval.Evaluate(*f);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Count(), 2u);
  EXPECT_TRUE(r->TestAssignment({0, 1}));
  EXPECT_TRUE(r->TestAssignment({1, 2}));
}

TEST(BoundedEvalTest, TwoHopNeighborsWithTwoVariables) {
  // Section 2.2's variable-reuse trick: a path of length 2 in FO^2:
  // exists x2 (E(x1,x2) & exists x1 (x1 = x2 ... )) needs 3 vars for
  // general paths, but two hops from a fixed start work with reuse.
  Database db = GraphDb(4, PathGraph(4));
  BoundedEvaluator eval(db, 3);
  auto f = ParseFormula(
      "exists x3 . E(x1,x3) & exists x1 . (x1 = x3 & E(x1,x2))");
  auto r = eval.Evaluate(*f);
  ASSERT_TRUE(r.ok());
  Relation pairs = r->ToRelation({0, 1});
  EXPECT_EQ(pairs, Relation::FromTuples(2, {{0, 2}, {1, 3}}));
}

TEST(BoundedEvalTest, QueryAnswersWithRepeatedVars) {
  Database db = GraphDb(3, Relation::FromTuples(2, {{0, 1}, {2, 2}}));
  BoundedEvaluator eval(db, 2);
  Query q;
  q.formula = *ParseFormula("E(x1,x1)");
  q.answer_vars = {0, 0};
  auto r = eval.EvaluateQuery(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Relation::FromTuples(2, {{2, 2}}));
}

TEST(BoundedEvalTest, ErrorsOnUnknownPredicate) {
  Database db(2);
  BoundedEvaluator eval(db, 2);
  EXPECT_FALSE(eval.Evaluate(*ParseFormula("F(x1)")).ok());
}

TEST(BoundedEvalTest, ErrorsOnArityMismatch) {
  Database db = GraphDb(2, Relation(2));
  BoundedEvaluator eval(db, 2);
  EXPECT_FALSE(eval.Evaluate(*ParseFormula("E(x1)")).ok());
}

TEST(BoundedEvalTest, ErrorsOnOutOfRangeVariable) {
  Database db = GraphDb(2, Relation(2));
  BoundedEvaluator eval(db, 2);
  EXPECT_FALSE(eval.Evaluate(*ParseFormula("E(x1,x3)")).ok());
}

TEST(BoundedEvalTest, CubeSizeGuard) {
  Database db(10);
  BoundedEvalOptions opts;
  opts.max_cube_bits = 100;
  BoundedEvaluator eval(db, 3, opts);  // 10^3 = 1000 > 100
  auto r = eval.Evaluate(True());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(BoundedEvalTest, EnvironmentBindings) {
  Database db(3);
  BoundedEvaluator eval(db, 2);
  // Bind S/1 = {1} at coordinate 0.
  AssignmentSet cube =
      AssignmentSet::VarEqualsConst(3, 2, 0, 1);
  std::map<std::string, RelVarBinding> env;
  env.emplace("S", RelVarBinding{cube, {0}});
  auto r = eval.EvaluateWithEnv(*ParseFormula("S(x2)"), env);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, AssignmentSet::VarEqualsConst(3, 2, 1, 1));
}

TEST(BoundedEvalTest, SecondOrderBruteForceTiny) {
  // exists S/1 . S(x1) & !S(x2) holds iff x1 != x2 can be separated:
  // always true for x1 != x2, also satisfiable for... S(x1) & !S(x2)
  // requires x1 != x2.
  Database db(2);
  BoundedEvaluator eval(db, 2);
  auto f = ParseFormula("exists2 S/1 . S(x1) & !(S(x2))");
  auto r = eval.Evaluate(*f);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->Count(), 2u);
  EXPECT_TRUE(r->TestAssignment({0, 1}));
  EXPECT_TRUE(r->TestAssignment({1, 0}));
}

TEST(BoundedEvalTest, SecondOrderGuard) {
  Database db(10);
  BoundedEvaluator eval(db, 2);
  auto f = ParseFormula("exists2 S/2 . S(x1,x2)");
  auto r = eval.Evaluate(*f);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// --- property tests against the reference evaluator -------------------------

struct PropertyCase {
  std::size_t domain_size;
  std::size_t num_vars;
  bool fixpoints;
};

class FoAgreementTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(FoAgreementTest, BoundedMatchesReference) {
  const PropertyCase param = GetParam();
  Rng rng(1000 + param.domain_size * 10 + param.num_vars);
  RandomFormulaOptions opts;
  opts.num_vars = param.num_vars;
  opts.max_size = 18;
  opts.predicates = {{"E", 2}, {"P", 1}};
  opts.allow_fixpoints = param.fixpoints;
  for (int trial = 0; trial < 40; ++trial) {
    Database db(param.domain_size);
    ASSERT_TRUE(
        db.AddRelation("E", RandomRelation(param.domain_size, 2, 0.3, rng))
            .ok());
    ASSERT_TRUE(
        db.AddRelation("P", RandomRelation(param.domain_size, 1, 0.5, rng))
            .ok());
    FormulaPtr f = RandomFormula(opts, rng);

    ReferenceEvaluator ref(db, param.num_vars);
    auto expected = ref.SatisfyingAssignments(f);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    BoundedEvaluator eval(db, param.num_vars);
    auto actual = eval.Evaluate(f);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();

    std::vector<std::size_t> all_vars(param.num_vars);
    for (std::size_t j = 0; j < param.num_vars; ++j) all_vars[j] = j;
    EXPECT_EQ(actual->ToRelation(all_vars), *expected)
        << "formula: " << FormulaToString(f) << "\ndb: " << db.ToString();
  }
}

// gtest names each case by the bytes of its PropertyCase, padding included;
// a static array is zero-initialized, padding and all, so the names are the
// same on every run (temporaries would leave stack garbage in the padding).
constexpr PropertyCase kPropertyCases[] = {
    {2, 2, false}, {3, 2, false}, {4, 3, false}, {2, 3, false}, {3, 3, false},
    {2, 2, true},  {3, 2, true},  {3, 3, true},  {4, 2, true}};

INSTANTIATE_TEST_SUITE_P(Sweep, FoAgreementTest,
                         ::testing::ValuesIn(kPropertyCases));

}  // namespace
}  // namespace bvq
