// Shared test helpers: deterministic per-test RNG seeding, and one-shot
// graph-problem sessions.
//
// Every randomized test derives its seed from the test's own full name (an
// FNV-1a hash of "Suite.TestName", mixed with a per-draw salt) instead of an
// ad-hoc literal. The seed is deterministic across runs and machines — same
// test, same seed — and each call logs the value, so a failure in a ctest
// log can be reproduced by running that one test, or by plugging the logged
// seed into a local Rng.
#ifndef TREEDL_TESTS_TEST_UTIL_HPP_
#define TREEDL_TESTS_TEST_UTIL_HPP_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "engine/engine.hpp"

namespace treedl {

/// Deterministic seed for the currently running gtest test. `salt`
/// distinguishes multiple independent Rngs within one test (0, 1, 2, ...).
inline uint64_t TestSeed(uint64_t salt = 0) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name =
      info == nullptr
          ? std::string("unknown")
          : std::string(info->test_suite_name()) + "." + info->name();
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  for (unsigned char c : name) {
    hash ^= c;
    hash *= 1099511628211ULL;  // FNV-1a prime
  }
  hash += salt * 0x9E3779B97F4A7C15ULL;  // golden-ratio increment per salt
  std::printf("[   SEED   ] %s salt=%llu seed=%llu\n", name.c_str(),
              static_cast<unsigned long long>(salt),
              static_cast<unsigned long long>(hash));
  return hash;
}

/// Answers `problem` on `graph` through a one-shot graph session. A test
/// that brings its own decomposition passes it as options.decomposition.
inline StatusOr<Engine::SolveResult> SolveGraph(const Graph& graph,
                                                Engine::Problem problem,
                                                EngineOptions options = {},
                                                RunStats* stats = nullptr) {
  return Engine::FromGraph(graph, std::move(options)).Solve(problem, stats);
}

}  // namespace treedl

#endif  // TREEDL_TESTS_TEST_UTIL_HPP_
