#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/primality.hpp"
#include "core/primality_enum.hpp"
#include "core/primality_internal.hpp"
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

// The packed derivation order (4-bit attribute ranks, core/
// primality_internal.hpp) against a vector model, at every length up to 16 —
// including the high nibbles no schema narrow enough to enumerate reaches:
// finding a rank, shifting the ranks above an introduced or forgotten
// attribute, and inserting or erasing a position.
TEST(PrimalityTest, PackedDerivationOrderMatchesVectorModel) {
  using internal::PrimNode;
  Rng rng(TestSeed());
  for (int trial = 0; trial < 4000; ++trial) {
    const uint32_t num_attrs = static_cast<uint32_t>(rng.UniformInt(1, 16));
    std::vector<uint32_t> ranks(num_attrs);
    for (uint32_t r = 0; r < num_attrs; ++r) ranks[r] = r;
    std::shuffle(ranks.begin(), ranks.end(), rng.engine());
    ranks.resize(rng.UniformIndex(num_attrs + 1));  // Co: the ranks outside Y
    const uint32_t len = static_cast<uint32_t>(ranks.size());
    auto pack = [](const std::vector<uint32_t>& seq) {
      uint64_t co = 0;
      for (size_t i = 0; i < seq.size(); ++i) co |= uint64_t{seq[i]} << (4 * i);
      return co;
    };
    const uint64_t co = pack(ranks);

    for (uint32_t r = 0; r < num_attrs; ++r) {
      auto it = std::find(ranks.begin(), ranks.end(), r);
      EXPECT_EQ(PrimNode::Find(co, len, r),
                static_cast<uint32_t>(it - ranks.begin()));
    }
    // An attribute of rank p enters the bag (ranks >= p move up), then Co at
    // position pos; forgetting it again restores the original word.
    if (num_attrs < 16) {
      const uint32_t p = static_cast<uint32_t>(rng.UniformInt(0, num_attrs));
      const uint32_t pos = static_cast<uint32_t>(rng.UniformIndex(len + 1));
      std::vector<uint32_t> shifted = ranks;
      for (uint32_t& x : shifted) x += x >= p ? 1 : 0;
      const uint64_t up = co + PrimNode::RanksFrom(co, len, p);
      EXPECT_EQ(up, pack(shifted));
      shifted.insert(shifted.begin() + pos, p);
      const uint64_t entered = PrimNode::Ranks::Insert(up, pos, p);
      EXPECT_EQ(entered, pack(shifted));
      uint64_t erased = PrimNode::Ranks::Erase(entered, pos);
      EXPECT_EQ(erased - PrimNode::RanksFrom(erased, len, p + 1), co);
    }
  }
}

// A schema of `n` attributes with the one FD a0 .. a(n-2) -> a(n-1).
Schema OneFdSchema(int n) {
  Schema schema;
  std::vector<AttributeId> lhs;
  for (int i = 0; i < n; ++i) {
    AttributeId a = schema.AddAttribute("a" + std::to_string(i));
    if (i + 1 < n) lhs.push_back(a);
  }
  EXPECT_TRUE(schema.AddFd(lhs, n - 1).ok());
  return schema;
}

// The caller-supplied decomposition with one bag holding every element of the
// encoding: the leaf rule enumerates every ordered partition of its
// attributes.
TreeDecomposition OneBagTd(const SchemaEncoding& encoding) {
  std::vector<ElementId> bag;
  for (ElementId e = 0; e < encoding.structure.NumElements(); ++e) {
    bag.push_back(e);
  }
  TreeDecomposition td;
  td.AddNode(std::move(bag));
  return td;
}

void ExpectCapacityError(const Status& status, const std::string& what) {
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  EXPECT_TRUE(status.capacity_exceeded()) << status;
  EXPECT_NE(status.message().find(what), std::string::npos) << status;
}

TEST(PrimalityTest, OneBagBeyondCapacityIsResourceExhausted) {
  // 11 attributes in the one leaf: one more than the leaf rule enumerates
  // (it would emit every ordered partition of them, ~10^8 states).
  Schema wide = OneFdSchema(11);
  SchemaEncoding wide_encoding = EncodeSchema(wide);
  TreeDecomposition wide_td = OneBagTd(wide_encoding);
  auto decided = IsPrimeViaTd(wide, wide_encoding, wide_td, 0);
  ASSERT_FALSE(decided.ok());
  ExpectCapacityError(decided.status(), "primality leaf rule");
  auto enumerated = EnumeratePrimes(wide, wide_encoding, wide_td);
  ASSERT_FALSE(enumerated.ok());
  ExpectCapacityError(enumerated.status(), "primality leaf rule");

  // 17 attributes do not fit the packed state word at all.
  Schema huge = OneFdSchema(17);
  SchemaEncoding huge_encoding = EncodeSchema(huge);
  auto refused =
      EnumeratePrimes(huge, huge_encoding, OneBagTd(huge_encoding));
  ASSERT_FALSE(refused.ok());
  ExpectCapacityError(refused.status(), "17 attributes exceeds the 16");

  // A one-bag decomposition within the limits is answered.
  Schema small = OneFdSchema(6);
  SchemaEncoding small_encoding = EncodeSchema(small);
  TreeDecomposition small_td = OneBagTd(small_encoding);
  auto primes = EnumeratePrimes(small, small_encoding, small_td);
  ASSERT_TRUE(primes.ok()) << primes.status();
  EXPECT_EQ(*primes, AllPrimesBruteForce(small));
  for (AttributeId a = 0; a < 6; ++a) {
    auto prime = IsPrimeViaTd(small, small_encoding, small_td, a);
    ASSERT_TRUE(prime.ok()) << prime.status();
    EXPECT_EQ(*prime, (*primes)[static_cast<size_t>(a)]) << a;
  }
}

TEST(PrimalityTest, EngineRefusesBagsBeyondCapacityAndStaysUsable) {
  Schema wide = OneFdSchema(11);
  EngineOptions options;
  options.decomposition = OneBagTd(EncodeSchema(wide));
  Engine engine(wide, options);
  // Refused before any walk, and not cached: a retry is refused the same way.
  for (int attempt = 0; attempt < 2; ++attempt) {
    RunStats stats;
    auto prime = engine.IsPrime(0, &stats);
    ASSERT_FALSE(prime.ok());
    ExpectCapacityError(prime.status(), "primality leaf rule");
    EXPECT_EQ(stats.dp_traversals, 0u);
    EXPECT_EQ(stats.dp_states, 0u);
    auto all = engine.AllPrimes(&stats);
    ASSERT_FALSE(all.ok());
    ExpectCapacityError(all.status(), "primality leaf rule");
    EXPECT_EQ(stats.dp_traversals, 0u);
  }
  // The session still works: REOPT swaps in a narrow decomposition (the
  // schema's incidence graph is a star), and the same engine answers.
  auto improved = engine.ImproveDecomposition();
  ASSERT_TRUE(improved.ok()) << improved.status();
  EXPECT_TRUE(improved->improved);
  EXPECT_LT(improved->width_after, improved->width_before);
  const std::vector<bool> oracle = AllPrimesBruteForce(wide);
  auto prime = engine.IsPrime(10);
  ASSERT_TRUE(prime.ok()) << prime.status();
  EXPECT_EQ(*prime, oracle[10]);
  auto all = engine.AllPrimes();
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(*all, oracle);
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
