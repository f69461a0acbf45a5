// Golden answers and state counts of the §5.2 / §5.3 primality DP.
//
// The values below were recorded from the vector-valued solve() states and
// must not move under any change of state representation: every prime bit,
// and RunStats::dp_states / dp_max_states_per_node (the number of reachable
// solve(s, Y, FY, Co, ΔC, FC) facts, summed over the normal-form nodes, and
// the largest table) of every route — Engine::IsPrime for each attribute in
// one session, Engine::AllPrimes fresh and after those IsPrime calls,
// core::IsPrimeViaTd for each attribute and core::EnumeratePrimes. Equal
// counts at every node kind are what a bijective re-encoding of the states
// preserves. The Engine routes run sequentially, on a 2-thread sharded walk,
// and with a table memory budget that evicts dead tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/primality.hpp"
#include "core/primality_enum.hpp"
#include "schema/generators.hpp"
#include "td/heuristics.hpp"
#include "test_util.hpp"

namespace treedl {
namespace {

struct GoldenCase {
  const char* name;
  Schema schema;
  /// Caller-supplied decomposition; unset, the Engine decomposes by itself
  /// and the core routes use DecomposeStructure (also min-fill).
  std::optional<TreeDecomposition> td;
};

std::vector<GoldenCase> Cases() {
  std::vector<GoldenCase> cases;
  for (int n : {30, 60}) {
    for (uint64_t seed = 7919; seed <= 7923; ++seed) {
      Rng rng(seed);
      cases.push_back({"window", RandomWindowSchema(n, 2 * n / 3, 5, &rng),
                       std::nullopt});
    }
  }
  cases.push_back({"balanced20", GenerateBalancedInstance(20).schema,
                   std::nullopt});
  // The largest quick row of bench_table1, on its own width-3 decomposition.
  BalancedInstance table1 = GenerateBalancedInstance(7);
  cases.push_back({"table1", table1.schema, table1.td});
  cases.push_back({"paper", Schema::PaperExampleSchema(), std::nullopt});
  return cases;
}

// One case's pinned outcome. Per-attribute sequences (IsPrime in attribute
// order on one session, IsPrimeViaTd per attribute) are pinned by their sum,
// their maximum and an FNV-1a digest of every (dp_states, max) pair.
struct Golden {
  const char* primes;  // one '0'/'1' per attribute
  size_t isprime_states;
  size_t isprime_max;
  uint64_t isprime_digest;
  size_t allprimes_states;  // fresh session: bottom-up + top-down
  size_t allprimes_max;
  size_t allprimes_after_states;  // after the IsPrime loop: top-down only
  size_t viatd_states;
  size_t viatd_max;
  uint64_t viatd_digest;
  size_t enumerate_states;
  size_t enumerate_max;
};

const Golden kGolden[] = {
    {"111111111110100101011111111010",
     32667, 480, 12372100718965010635ULL,
     6295, 480, 2503,
     100193, 480, 5125710226191307650ULL,
     6295, 480},
    {"100111010100011111111111010101",
     44307, 140, 1577888112366497373ULL,
     6519, 140, 3378,
     82097, 140, 15905233527029258605ULL,
     6519, 140},
    {"111110110111011101111111101111",
     59135, 239, 7132172393892566546ULL,
     13993, 239, 6866,
     170244, 239, 3463103709093179379ULL,
     13993, 239},
    {"101100101110101000111010011011",
     61350, 455, 8053350501594842644ULL,
     11551, 455, 5208,
     134129, 455, 2991929403209903650ULL,
     11551, 455},
    {"111111111110000101110001111011",
     43110, 152, 8279789209766254281ULL,
     8291, 152, 3765,
     112748, 152, 5843257481487735519ULL,
     8291, 152},
    {"110110011101111110001101011100111010110110110111110110011001",
     117357, 591, 10969912218393113564ULL,
     21036, 591, 6620,
     581191, 591, 14964817127732258176ULL,
     21036, 591},
    {"110010011111111111111110111111100111111010011010111111110101",
     108849, 138, 17277453904221278206ULL,
     12789, 138, 6436,
     294023, 138, 18060296671311628078ULL,
     12789, 138},
    {"101011011111111111011111011010101011110100011010101001101111",
     149231, 280, 7352140855928954261ULL,
     18964, 280, 8693,
     397602, 280, 267995274280298691ULL,
     18964, 280},
    {"101011010111011101101100101100111011001111001100110011110111",
     103199, 155, 5031901982250824774ULL,
     13960, 155, 6457,
     393445, 138, 11493843253591395900ULL,
     13960, 155},
    {"111100101101010100110001111001011001101100111000011001000111",
     58024, 180, 10760098555171076503ULL,
     13397, 180, 5296,
     328442, 180, 9801744365097843523ULL,
     13397, 180},
    {"110110110110110110110110110110110110110110110110110110110110",
     12503, 7, 14148596956860971020ULL,
     2612, 7, 1129,
     57087, 7, 4773362368394144784ULL,
     2612, 7},
    {"110110110110110110110",
     4860, 21, 17788410083851981936ULL,
     1926, 21, 585,
     14969, 21, 10328039216799236091ULL,
     1926, 21},
    {"111100",
     785, 30, 11003756527157895817ULL,
     395, 30, 208,
     1121, 30, 3303495735740347083ULL,
     395, 30},
};

struct Digest {
  size_t states = 0;
  size_t max = 0;
  uint64_t hash = 1469598103934665603ULL;

  void Add(const RunStats& stats) {
    states += stats.dp_states;
    max = std::max(max, stats.dp_max_states_per_node);
    for (uint64_t v : {uint64_t{stats.dp_states},
                       uint64_t{stats.dp_max_states_per_node}}) {
      hash ^= v;
      hash *= 1099511628211ULL;
    }
  }
};

std::string Bits(const std::vector<bool>& primes) {
  std::string bits;
  for (bool p : primes) bits += p ? '1' : '0';
  return bits;
}

std::string Literal(const Golden& g) {
  return "{\"" + std::string(g.primes) + "\", " +
         std::to_string(g.isprime_states) + ", " +
         std::to_string(g.isprime_max) + ", " +
         std::to_string(g.isprime_digest) + "ULL, " +
         std::to_string(g.allprimes_states) + ", " +
         std::to_string(g.allprimes_max) + ", " +
         std::to_string(g.allprimes_after_states) + ", " +
         std::to_string(g.viatd_states) + ", " + std::to_string(g.viatd_max) +
         ", " + std::to_string(g.viatd_digest) + "ULL, " +
         std::to_string(g.enumerate_states) + ", " +
         std::to_string(g.enumerate_max) + "}";
}

struct EngineVariant {
  size_t threads;
  size_t table_memory_budget;
};

const EngineVariant kVariants[] = {{1, 0}, {2, 0}, {2, 1}};

TEST(PrimalityGoldenTest, PinsAnswersAndStateCounts) {
  std::vector<GoldenCase> cases = Cases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (size_t c = 0; c < cases.size(); ++c) {
    const GoldenCase& gc = cases[c];
    const Golden& want = kGolden[c];
    SCOPED_TRACE(std::string(gc.name) + " case " + std::to_string(c));
    const int n = gc.schema.NumAttributes();

    // The core routes, over one decomposition of the encoded structure.
    SchemaEncoding encoding = EncodeSchema(gc.schema);
    TreeDecomposition td;
    if (gc.td.has_value()) {
      td = *gc.td;
    } else {
      auto built = DecomposeStructure(encoding.structure);
      ASSERT_TRUE(built.ok()) << built.status();
      td = std::move(built).value();
    }
    RunStats enumerate;
    auto enumerated = core::EnumeratePrimes(gc.schema, encoding, td,
                                            &enumerate);
    ASSERT_TRUE(enumerated.ok()) << enumerated.status();
    const std::string primes = Bits(*enumerated);
    Digest viatd;
    for (AttributeId a = 0; a < n; ++a) {
      RunStats run;
      auto prime = core::IsPrimeViaTd(gc.schema, encoding, td, a, &run);
      ASSERT_TRUE(prime.ok()) << prime.status();
      EXPECT_EQ(*prime, (*enumerated)[static_cast<size_t>(a)]) << "attr " << a;
      viatd.Add(run);
    }

    Golden got{};
    for (const EngineVariant& variant : kVariants) {
      SCOPED_TRACE("threads " + std::to_string(variant.threads) + " budget " +
                   std::to_string(variant.table_memory_budget));
      EngineOptions options;
      options.decomposition = gc.td;
      options.num_threads = variant.threads;
      options.table_memory_budget = variant.table_memory_budget;

      Engine engine(gc.schema, options);
      Digest isprime;
      std::vector<bool> decided;
      for (AttributeId a = 0; a < n; ++a) {
        RunStats run;
        auto prime = engine.IsPrime(a, &run);
        ASSERT_TRUE(prime.ok()) << prime.status();
        decided.push_back(*prime);
        isprime.Add(run);
      }
      RunStats after;
      auto after_primes = engine.AllPrimes(&after);
      ASSERT_TRUE(after_primes.ok()) << after_primes.status();

      RunStats fresh;
      auto fresh_primes = Engine(gc.schema, options).AllPrimes(&fresh);
      ASSERT_TRUE(fresh_primes.ok()) << fresh_primes.status();

      EXPECT_EQ(Bits(decided), primes);
      EXPECT_EQ(Bits(*after_primes), primes);
      EXPECT_EQ(Bits(*fresh_primes), primes);
      got = Golden{primes.c_str(),        isprime.states,
                   isprime.max,           isprime.hash,
                   fresh.dp_states,       fresh.dp_max_states_per_node,
                   after.dp_states,       viatd.states,
                   viatd.max,             viatd.hash,
                   enumerate.dp_states,   enumerate.dp_max_states_per_node};
      EXPECT_EQ(Literal(got), Literal(want));
    }
  }
}

}  // namespace
}  // namespace treedl
