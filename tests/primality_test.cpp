#include <gtest/gtest.h>

#include "core/primality.hpp"
#include "core/primality_enum.hpp"
#include "engine/engine.hpp"
#include "schema/generators.hpp"
#include "schema/primality_bruteforce.hpp"
#include "td/heuristics.hpp"
#include "test_util.hpp"

namespace treedl::core {
namespace {

TEST(PrimalityTest, PaperExampleDecision) {
  Schema schema = Schema::PaperExampleSchema();
  // Ex 2.1: primes are a, b, c, d; e and g are not prime.
  for (const char* name : {"a", "b", "c", "d"}) {
    AttributeId a = schema.AttributeByName(name).value();
    auto result = Engine(schema).IsPrime(a);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(*result) << name;
  }
  for (const char* name : {"e", "g"}) {
    AttributeId a = schema.AttributeByName(name).value();
    auto result = Engine(schema).IsPrime(a);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(*result) << name;
  }
}

TEST(PrimalityTest, PaperExampleEnumeration) {
  Schema schema = Schema::PaperExampleSchema();
  auto primes = Engine(schema).AllPrimes();
  ASSERT_TRUE(primes.ok()) << primes.status();
  EXPECT_EQ(*primes, AllPrimesBruteForce(schema));
}

TEST(PrimalityTest, TrivialSchemas) {
  // Single attribute, no FDs: the attribute is the key, hence prime.
  Schema s1;
  s1.AddAttribute("a");
  EXPECT_TRUE(Engine(s1).IsPrime(0).value());
  // a -> b: key is {a}; b is not prime.
  Schema s2;
  AttributeId a = s2.AddAttribute("a");
  AttributeId b = s2.AddAttribute("b");
  ASSERT_TRUE(s2.AddFd({a}, b).ok());
  EXPECT_TRUE(Engine(s2).IsPrime(a).value());
  EXPECT_FALSE(Engine(s2).IsPrime(b).value());
  // a -> b, b -> a: both keys {a} and {b} exist; both prime.
  Schema s3;
  a = s3.AddAttribute("a");
  b = s3.AddAttribute("b");
  ASSERT_TRUE(s3.AddFd({a}, b).ok());
  ASSERT_TRUE(s3.AddFd({b}, a).ok());
  EXPECT_TRUE(Engine(s3).IsPrime(a).value());
  EXPECT_TRUE(Engine(s3).IsPrime(b).value());
}

TEST(PrimalityTest, SelfDependency) {
  // a a -> a style trivial FDs must not break anything: a -> a.
  Schema s;
  AttributeId a = s.AddAttribute("a");
  AttributeId b = s.AddAttribute("b");
  ASSERT_TRUE(s.AddFd({a}, a).ok());
  auto primes = Engine(s).AllPrimes();
  ASSERT_TRUE(primes.ok()) << primes.status();
  EXPECT_EQ(*primes, AllPrimesBruteForce(s));
  (void)b;
}

TEST(PrimalityTest, BalancedInstanceGroundTruth) {
  for (int g : {1, 2, 3, 4}) {
    BalancedInstance inst = GenerateBalancedInstance(g);
    // x1 is prime, z1 is not — and the whole profile matches brute force.
    EXPECT_TRUE(IsPrimeViaTd(inst.schema, inst.encoding, inst.td,
                             inst.query_attribute)
                    .value());
    EXPECT_FALSE(IsPrimeViaTd(inst.schema, inst.encoding, inst.td,
                              inst.nonprime_attribute)
                     .value());
    auto primes = EnumeratePrimes(inst.schema, inst.encoding, inst.td);
    ASSERT_TRUE(primes.ok()) << primes.status();
    EXPECT_EQ(*primes, AllPrimesBruteForce(inst.schema)) << "g=" << g;
  }
}

TEST(PrimalityTest, LargeBalancedInstanceRuns) {
  // Far beyond brute-force reach: just verify the structural ground truth
  // (x*/y* prime, z* not) on the Table 1-sized instance.
  BalancedInstance inst = GenerateBalancedInstance(31);  // 93 attributes
  auto primes = EnumeratePrimes(inst.schema, inst.encoding, inst.td);
  ASSERT_TRUE(primes.ok()) << primes.status();
  for (AttributeId a = 0; a < inst.schema.NumAttributes(); ++a) {
    char kind = inst.schema.AttributeName(a)[0];
    EXPECT_EQ((*primes)[static_cast<size_t>(a)], kind == 'x' || kind == 'y')
        << inst.schema.AttributeName(a);
  }
}

class PrimalityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PrimalityPropertyTest, DecisionMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Schema schema = RandomWindowSchema(7, 5, 4, &rng);
  SchemaEncoding encoding = EncodeSchema(schema);
  auto td = DecomposeStructure(encoding.structure);
  ASSERT_TRUE(td.ok());
  for (AttributeId a = 0; a < schema.NumAttributes(); ++a) {
    auto result = IsPrimeViaTd(schema, encoding, *td, a);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(*result, IsPrimeBruteForce(schema, a))
        << "seed " << GetParam() << " attr " << schema.AttributeName(a)
        << " schema " << schema.ToString();
  }
}

TEST_P(PrimalityPropertyTest, EnumerationMatchesBruteForceAndQuadratic) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 500);
  Schema schema = RandomWindowSchema(8, 5, 4, &rng);
  SchemaEncoding encoding = EncodeSchema(schema);
  auto td = DecomposeStructure(encoding.structure);
  ASSERT_TRUE(td.ok());
  auto linear = EnumeratePrimes(schema, encoding, *td);
  ASSERT_TRUE(linear.ok()) << linear.status();
  auto quadratic = EnumeratePrimesQuadratic(schema, encoding, *td);
  ASSERT_TRUE(quadratic.ok()) << quadratic.status();
  auto brute = AllPrimesBruteForce(schema);
  EXPECT_EQ(*linear, brute) << "seed " << GetParam() << " schema "
                            << schema.ToString();
  EXPECT_EQ(*quadratic, brute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimalityPropertyTest, ::testing::Range(0, 25));

// Engine::IsPrime (one solve↓ path over the shared §5.3 tables) against the
// independent §5.2 route (re-root + normalize + DP per attribute, on its own
// decomposition), the AllPrimes bits, and brute force on small schemas — at
// 1 and 4 threads, with and without a table memory budget, and in every
// order of IsPrime and AllPrimes calls.
TEST(PrimalityTest, EngineIsPrimeMatchesSection52Route) {
  Rng rng(TestSeed());
  std::vector<Schema> schemas;
  for (int n : {8, 12, 16, 40}) {
    schemas.push_back(RandomWindowSchema(n, 2 * n / 3, 4, &rng));
  }
  schemas.push_back(GenerateBalancedInstance(5).schema);
  schemas.push_back(GenerateBalancedInstance(13).schema);

  enum class Order { kIsPrimeFirst, kAllPrimesFirst, kInterleaved };
  for (const Schema& schema : schemas) {
    SCOPED_TRACE(schema.ToString());
    const AttributeId n = schema.NumAttributes();
    SchemaEncoding encoding = EncodeSchema(schema);
    auto td = DecomposeStructure(encoding.structure);
    ASSERT_TRUE(td.ok()) << td.status();
    std::vector<bool> oracle(static_cast<size_t>(n));
    for (AttributeId a = 0; a < n; ++a) {
      auto prime = IsPrimeViaTd(schema, encoding, *td, a);
      ASSERT_TRUE(prime.ok()) << prime.status();
      oracle[static_cast<size_t>(a)] = *prime;
      if (n <= 20) {
        EXPECT_EQ(*prime, IsPrimeBruteForce(schema, a)) << a;
      }
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t table_budget : {size_t{0}, size_t{1} << 12}) {
        for (Order order :
             {Order::kIsPrimeFirst, Order::kAllPrimesFirst,
              Order::kInterleaved}) {
          SCOPED_TRACE(testing::Message()
                       << "threads " << threads << " table_budget "
                       << table_budget << " order " << static_cast<int>(order));
          EngineOptions options;
          options.num_threads = threads;
          options.table_memory_budget = table_budget;
          Engine engine(schema, options);
          std::vector<bool> all;
          auto all_primes = [&] {
            auto primes = engine.AllPrimes();
            ASSERT_TRUE(primes.ok()) << primes.status();
            all = *primes;
          };
          if (order == Order::kAllPrimesFirst) all_primes();
          for (AttributeId a = 0; a < n; ++a) {
            auto prime = engine.IsPrime(a);
            ASSERT_TRUE(prime.ok()) << prime.status();
            EXPECT_EQ(*prime, oracle[static_cast<size_t>(a)]) << a;
            if (order == Order::kInterleaved && a == n / 2) all_primes();
          }
          if (order == Order::kIsPrimeFirst) all_primes();
          EXPECT_EQ(all, oracle);
        }
      }
    }
  }
}

TEST(PrimalityTest, RejectsBadInputs) {
  Schema schema = Schema::PaperExampleSchema();
  SchemaEncoding encoding = EncodeSchema(schema);
  // Out-of-range attribute.
  auto td = DecomposeStructure(encoding.structure);
  ASSERT_TRUE(td.ok());
  EXPECT_FALSE(IsPrimeViaTd(schema, encoding, *td, 99).ok());
  // Invalid decomposition.
  TreeDecomposition bad;
  bad.AddNode({0});
  EXPECT_FALSE(IsPrimeViaTd(schema, encoding, bad, 0).ok());
  EXPECT_FALSE(EnumeratePrimes(schema, encoding, bad).ok());
}

}  // namespace
}  // namespace treedl::core
