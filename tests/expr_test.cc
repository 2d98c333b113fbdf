#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "expr/expr.h"
#include "expr/vec_program.h"
#include "storage/relation.h"

namespace rasql::expr {
namespace {

using storage::Row;
using storage::Value;
using storage::ValueType;

Row TestRow() {
  return {Value::Int(10), Value::Double(2.5), Value::String("abc"),
          Value::Int(-3)};
}

TEST(ExprTest, ColumnRefEval) {
  auto e = MakeColumnRef(0, ValueType::kInt64, "x");
  EXPECT_EQ(e->Eval(TestRow()).AsInt(), 10);
}

TEST(ExprTest, LiteralEval) {
  auto e = MakeLiteral(Value::Double(1.5));
  EXPECT_DOUBLE_EQ(e->Eval(TestRow()).AsDouble(), 1.5);
}

TEST(ExprTest, IntArithmetic) {
  auto plus = MakeBinary(BinaryOp::kAdd,
                         MakeColumnRef(0, ValueType::kInt64),
                         MakeColumnRef(3, ValueType::kInt64));
  EXPECT_EQ(plus->output_type(), ValueType::kInt64);
  EXPECT_EQ(plus->Eval(TestRow()).AsInt(), 7);
}

TEST(ExprTest, MixedArithmeticWidensToDouble) {
  auto times = MakeBinary(BinaryOp::kMul,
                          MakeColumnRef(0, ValueType::kInt64),
                          MakeColumnRef(1, ValueType::kDouble));
  EXPECT_EQ(times->output_type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(times->Eval(TestRow()).AsDouble(), 25.0);
}

TEST(ExprTest, Comparisons) {
  auto lt = MakeBinary(BinaryOp::kLt, MakeColumnRef(3, ValueType::kInt64),
                       MakeLiteral(Value::Int(0)));
  EXPECT_EQ(lt->Eval(TestRow()).AsInt(), 1);
  auto ge = MakeBinary(BinaryOp::kGe, MakeColumnRef(3, ValueType::kInt64),
                       MakeLiteral(Value::Int(0)));
  EXPECT_EQ(ge->Eval(TestRow()).AsInt(), 0);
}

TEST(ExprTest, StringEquality) {
  auto eq = MakeBinary(BinaryOp::kEq, MakeColumnRef(2, ValueType::kString),
                       MakeLiteral(Value::String("abc")));
  EXPECT_EQ(eq->Eval(TestRow()).AsInt(), 1);
}

TEST(ExprTest, BooleanShortCircuit) {
  // rhs would divide by zero; AND must not evaluate it when lhs is false.
  auto division = MakeBinary(BinaryOp::kDiv, MakeLiteral(Value::Int(1)),
                             MakeLiteral(Value::Int(0)));
  auto guarded =
      MakeBinary(BinaryOp::kAnd, MakeLiteral(Value::Int(0)),
                 std::move(division));
  EXPECT_EQ(guarded->Eval(TestRow()).AsInt(), 0);
}

TEST(ExprTest, NotAndNegate) {
  NotExpr not_true{MakeLiteral(Value::Int(1))};
  EXPECT_EQ(not_true.Eval(TestRow()).AsInt(), 0);
  NegateExpr neg{MakeColumnRef(0, ValueType::kInt64)};
  EXPECT_EQ(neg.Eval(TestRow()).AsInt(), -10);
}

TEST(ExprTest, NullPropagates) {
  auto add = MakeBinary(BinaryOp::kAdd, MakeLiteral(Value::Null()),
                        MakeLiteral(Value::Int(1)));
  EXPECT_TRUE(add->Eval(TestRow()).is_null());
}

TEST(ExprTest, CloneIsDeep) {
  auto e = MakeBinary(BinaryOp::kAdd, MakeColumnRef(0, ValueType::kInt64),
                      MakeLiteral(Value::Int(5)));
  auto c = e->Clone();
  EXPECT_EQ(c->Eval(TestRow()).AsInt(), 15);
  EXPECT_EQ(e->ToString(), c->ToString());
}

TEST(ExprTest, BinaryResultTypeRejectsMismatches) {
  EXPECT_EQ(BinaryResultType(BinaryOp::kAdd, ValueType::kString,
                             ValueType::kInt64),
            ValueType::kNull);
  EXPECT_EQ(BinaryResultType(BinaryOp::kEq, ValueType::kString,
                             ValueType::kInt64),
            ValueType::kNull);
  EXPECT_EQ(BinaryResultType(BinaryOp::kEq, ValueType::kString,
                             ValueType::kString),
            ValueType::kInt64);
}

TEST(ExprTest, Int64ArithmeticWraps) {
  const Row row = {Value::Int(INT64_MIN), Value::Int(INT64_MAX),
                   Value::Int(-1), Value::Int(0)};
  auto col = [](int i) { return MakeColumnRef(i, ValueType::kInt64); };
  auto eval = [&](BinaryOp op, int l, int r) {
    return MakeBinary(op, col(l), col(r))->Eval(row);
  };
  EXPECT_EQ(eval(BinaryOp::kAdd, 1, 1).AsInt(), -2);
  EXPECT_EQ(eval(BinaryOp::kSub, 0, 1).AsInt(), 1);
  EXPECT_EQ(eval(BinaryOp::kMul, 0, 2).AsInt(), INT64_MIN);
  EXPECT_EQ(eval(BinaryOp::kDiv, 0, 2).AsInt(), INT64_MIN);  // no trap
  EXPECT_TRUE(eval(BinaryOp::kDiv, 0, 3).is_null());
  EXPECT_EQ(NegateExpr(col(0)).Eval(row).AsInt(), INT64_MIN);
}

// Property sweep: the interpreted tree and its compiled batch program
// (VecProgram) agree on a family of expressions over varying row contents.
class CompiledVsInterpreted : public ::testing::TestWithParam<int> {};

TEST_P(CompiledVsInterpreted, Agree) {
  const int64_t x = GetParam();
  const Row row = {Value::Int(x), Value::Double(x * 0.5), Value::Int(x - 7)};
  storage::Relation rel(storage::Schema::Of({{"X", ValueType::kInt64},
                                             {"H", ValueType::kDouble},
                                             {"Y", ValueType::kInt64}}));
  rel.AppendRow(row);
  auto e = MakeBinary(
      BinaryOp::kOr,
      MakeBinary(BinaryOp::kGt,
                 MakeBinary(BinaryOp::kAdd,
                            MakeColumnRef(0, ValueType::kInt64),
                            MakeColumnRef(2, ValueType::kInt64)),
                 MakeLiteral(Value::Int(0))),
      MakeBinary(BinaryOp::kLe, MakeColumnRef(1, ValueType::kDouble),
                 MakeLiteral(Value::Double(-2.0))));
  auto compiled = VecProgram::Compile(*e);
  ASSERT_TRUE(compiled.has_value());
  VecProgram::Scratch scratch;
  std::vector<uint32_t> sel = {0};
  ASSERT_TRUE(compiled->FilterChunk(rel.chunk(0), &sel, &scratch));
  EXPECT_EQ(!sel.empty(), IsTruthy(e->Eval(row)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompiledVsInterpreted,
                         ::testing::Values(-100, -7, -1, 0, 1, 3, 7, 50,
                                           1000));

}  // namespace
}  // namespace rasql::expr
