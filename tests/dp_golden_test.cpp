// Golden answers and state counts of the five graph DPs.
//
// The values below were recorded from the byte-per-vertex state engine and
// must not move under any change of state representation: the optimum or
// count of each problem, RunStats::dp_states (the number of reachable
// solve() facts, summed over the normal-form nodes), and the exact 3COL
// witness. The witness is decided by the state tables' insertion order (the
// first accepting root state, then the first consistent predecessor at each
// forget node), so pinning it pins the emission order of every transition.
#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

using Problem = Engine::Problem;

struct GoldenCase {
  const char* name;
  Graph (*make)();
};

Graph PartialKTree(int k) {
  Rng rng(7919 + static_cast<uint64_t>(k));
  return RandomPartialKTree(48, k, 0.35, &rng);
}

const GoldenCase kCases[] = {
    {"pk3", [] { return PartialKTree(3); }},
    {"pk4", [] { return PartialKTree(4); }},
    {"pk5", [] { return PartialKTree(5); }},
    {"pk6", [] { return PartialKTree(6); }},
    {"petersen", [] { return PetersenGraph(); }},
    {"grid5x5", [] { return GridGraph(5, 5); }},
    {"k4", [] { return CompleteGraph(4); }},
    {"c5", [] { return CycleGraph(5); }},
};

// One case's pinned outcome: per problem in kProblems order, the answer
// (3COL: 0/1, #3COL: the count, VC/IS/DS: the optimum) and dp_states; then
// the 3COL witness as one digit per vertex ("" when not 3-colorable).
struct Golden {
  uint64_t answer[5];
  size_t dp_states[5];
  const char* witness;
};

const Problem kProblems[] = {Problem::kThreeColor, Problem::kThreeColorCount,
                             Problem::kVertexCover, Problem::kIndependentSet,
                             Problem::kDominatingSet};

uint64_t AnswerOf(Problem problem, const Engine::SolveResult& r) {
  switch (problem) {
    case Problem::kThreeColor:
      return r.feasible ? 1 : 0;
    case Problem::kThreeColorCount:
      return r.count;
    default:
      return r.optimum;
  }
}

const Golden kGolden[] = {
    {{1, 6499837226778624, 15, 33, 26},
     {814, 814, 407, 407, 628},
     "001102110110200102210001011000000010200001000000"},
    {{1, 1337720832, 17, 31, 14},
     {2317, 2317, 1041, 1041, 2325},
     "001202010100112001101002200021102010000021201000"},
    {{0, 0, 18, 30, 14}, {1872, 1872, 1409, 1409, 4655}, ""},
    {{1, 19160064, 19, 29, 13},
     {6886, 6886, 2184, 2184, 6386},
     "121021010210012020210020100202000012210100000200"},
    {{1, 120, 6, 4, 3}, {1053, 1053, 281, 281, 821}, "2021011002"},
    {{1, 580986, 12, 13, 7},
     {3822, 3822, 780, 780, 3694},
     "1010201021102100102110102"},
    {{0, 0, 3, 1, 1}, {0, 0, 14, 14, 30}, ""},
    {{1, 30, 3, 2, 2}, {69, 69, 29, 29, 55}, "21010"},
};
static_assert(std::size(kGolden) == std::size(kCases));

std::string WitnessDigits(const std::optional<std::vector<int>>& coloring) {
  std::string digits;
  if (coloring.has_value()) {
    for (int color : *coloring) digits += static_cast<char>('0' + color);
  }
  return digits;
}

// Each problem alone (Engine::Solve), sequentially and on a 4-thread
// sharded walk: same answers, same states, same witness.
TEST(DpGoldenTest, SolvePinsAnswersStatesAndWitness) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t i = 0; i < std::size(kCases); ++i) {
      SCOPED_TRACE(std::string(kCases[i].name) + " threads=" +
                   std::to_string(threads));
      Graph g = kCases[i].make();
      EngineOptions options;
      options.num_threads = threads;
      for (size_t p = 0; p < std::size(kProblems); ++p) {
        RunStats stats;
        auto solved = SolveGraph(g, kProblems[p], options, &stats);
        ASSERT_TRUE(solved.ok()) << solved.status();
        EXPECT_EQ(AnswerOf(kProblems[p], *solved), kGolden[i].answer[p])
            << "problem " << p;
        EXPECT_EQ(stats.dp_states, kGolden[i].dp_states[p]) << "problem " << p;
        if (kProblems[p] == Problem::kThreeColor) {
          EXPECT_EQ(WitnessDigits(solved->witness), kGolden[i].witness);
        }
      }
    }
  }
}

// The fused five-pass walk (Engine::SolveAll) reaches the same facts: its
// dp_states is the sum of the five single-problem walks.
TEST(DpGoldenTest, SolveAllPinsTheSameFacts) {
  for (size_t i = 0; i < std::size(kCases); ++i) {
    SCOPED_TRACE(kCases[i].name);
    Engine engine = Engine::FromGraph(kCases[i].make());
    RunStats stats;
    auto all = engine.SolveAll(&stats);
    ASSERT_TRUE(all.ok()) << all.status();
    size_t states = 0;
    for (size_t p = 0; p < std::size(kProblems); ++p) {
      EXPECT_EQ(AnswerOf(kProblems[p], all->Result(kProblems[p])),
                kGolden[i].answer[p])
          << "problem " << p;
      states += kGolden[i].dp_states[p];
    }
    EXPECT_EQ(stats.dp_states, states);
    EXPECT_EQ(WitnessDigits(all->coloring), kGolden[i].witness);
  }
}

}  // namespace
}  // namespace treedl
