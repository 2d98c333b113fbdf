#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "storage/relation.h"
#include "lint/gptest.h"

namespace rasql::lint {
namespace {

using storage::MakeIntRelation;
using storage::Relation;
using storage::Schema;
using storage::Value;
using storage::ValueType;

Relation Weighted(const std::vector<std::tuple<int64_t, int64_t, double>>&
                      edges) {
  Relation rel{Schema::Of({{"Src", ValueType::kInt64},
                           {"Dst", ValueType::kInt64},
                           {"Cost", ValueType::kDouble}})};
  for (const auto& [s, d, c] : edges) {
    rel.Add({Value::Int(s), Value::Int(d), Value::Double(c)});
  }
  return rel;
}

constexpr char kApsp[] = R"(
    WITH recursive apsp(Src, Dst, min() AS Cost) AS
      (SELECT Src, Dst, Cost FROM edge) UNION
      (SELECT apsp.Src, edge.Dst, apsp.Cost + edge.Cost
       FROM apsp, edge WHERE apsp.Dst = edge.Src)
    SELECT Src, Dst, Cost FROM apsp)";

TEST(PremValidatorTest, ApspHolds) {
  // Appendix G's own example: min over additive path costs is PreM.
  Relation edge = Weighted({{1, 2, 1}, {2, 3, 2}, {1, 3, 9}, {3, 1, 4}});
  auto result = ValidatePrem(kApsp, {{"edge", &edge}});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->holds) << result->message;
  EXPECT_GT(result->iterations_checked, 0);
}

TEST(PremValidatorTest, CyclicGraphExhaustsLimitButHolds) {
  // On a 0-free cycle the unaggregated recursion never terminates; the
  // validator reports PreM held for every checked step.
  Relation edge = Weighted({{1, 2, 1}, {2, 1, 1}});
  auto result = ValidatePrem(kApsp, {{"edge", &edge}}, /*max_iterations=*/8);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->holds);
  EXPECT_TRUE(result->exhausted_limit);
}

TEST(PremValidatorTest, DetectsViolation) {
  // min() with multiplicative costs and negative factors is NOT PreM:
  // pruning to the per-group minimum discards the tuple whose product
  // becomes smallest after multiplying by a negative cost.
  Relation edge = Weighted({{1, 2, 2}, {1, 2, -3}, {2, 3, -1}});
  auto result = ValidatePrem(R"(
      WITH recursive p(Src, Dst, min() AS Cost) AS
        (SELECT Src, Dst, Cost FROM edge) UNION
        (SELECT p.Src, edge.Dst, p.Cost * edge.Cost
         FROM p, edge WHERE p.Dst = edge.Src)
      SELECT Src, Dst, Cost FROM p)",
                             {{"edge", &edge}}, 8);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->holds);
  EXPECT_NE(result->message.find("violated"), std::string::npos);
}

TEST(PremValidatorTest, RejectsSumHeads) {
  Relation edge = MakeIntRelation({"Src", "Dst"}, {{1, 2}});
  auto result = ValidatePrem(R"(
      WITH recursive c(Dst, sum() AS N) AS
        (SELECT 1, 1) UNION
        (SELECT edge.Dst, c.N FROM c, edge WHERE c.Dst = edge.Src)
      SELECT Dst, N FROM c)",
                             {{"edge", &edge}});
  EXPECT_FALSE(result.ok());
}

TEST(PremValidatorTest, RejectsNonRecursiveQueries) {
  Relation edge = MakeIntRelation({"Src", "Dst"}, {{1, 2}});
  EXPECT_FALSE(ValidatePrem("SELECT Src FROM edge", {{"edge", &edge}}).ok());
}

// ---- CLI flag parsing, through the built binaries. ----

struct CommandResult {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr
};

/// Runs `args` after `binary` with stdin closed; folds stderr into stdout.
CommandResult RunCli(const std::string& binary, const std::string& args) {
  CommandResult result;
  const std::string command = binary + " " + args + " </dev/null 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  result.exit_code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return result;
}

TEST(CliFlagsTest, ShellRejectsNonPositiveWorkers) {
  for (const char* workers : {"0", "-2", ""}) {
    const CommandResult r = RunCli(
        RASQL_SHELL_BIN, std::string("--distributed --workers ") + workers);
    EXPECT_EQ(r.exit_code, 1) << workers << ": " << r.output;
    EXPECT_NE(r.output.find("--workers wants a positive count"),
              std::string::npos)
        << r.output;
  }
  const CommandResult ok =
      RunCli(RASQL_SHELL_BIN, "--distributed --workers 2 /dev/null");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

TEST(CliFlagsTest, ShellRejectsUnknownFlags) {
  for (const char* flag : {"--bogus-flag", "--async-shuffle"}) {
    const CommandResult r =
        RunCli(RASQL_SHELL_BIN, std::string(flag) + " /dev/null");
    EXPECT_EQ(r.exit_code, 1) << flag << ": " << r.output;
    EXPECT_NE(r.output.find(std::string("unknown flag ") + flag),
              std::string::npos)
        << r.output;
  }
}

TEST(CliFlagsTest, ServerRejectsNonPositiveWorkers) {
  for (const char* workers : {"0", "-2"}) {
    const CommandResult r = RunCli(
        RASQL_SERVERD_BIN, std::string("--distributed --workers=") + workers);
    EXPECT_EQ(r.exit_code, 1) << workers << ": " << r.output;
    EXPECT_NE(r.output.find("--workers wants a positive count"),
              std::string::npos)
        << r.output;
  }
}

}  // namespace
}  // namespace rasql::lint
