// Quickstart: the paper's running example through the treedl::Engine
// session API.
//
// One Engine holds the schema of Ex 2.1; the encoding (Ex 2.2), Gaifman
// graph, and tree decomposition are built once, lazily, and amortized across
// every query — the §5.3 linearity argument made concrete. Each query
// returns its own RunStats; CumulativeStats() shows that the session paid
// for exactly one encoding and one decomposition.
#include <iostream>

#include "engine/engine.hpp"
#include "td/td_io.hpp"

int main() {
  using namespace treedl;

  // (R, F) with R = abcdeg and F = {ab->c, c->b, cd->e, de->g, g->e}.
  Schema schema = Schema::PaperExampleSchema();
  std::cout << "Schema (Ex 2.1): " << schema.ToString() << "\n\n";

  // One session: encoding + decomposition are built once and cached.
  Engine engine(schema);
  auto td = engine.Decomposition();
  if (!td.ok()) {
    std::cerr << "decomposition failed: " << td.status() << "\n";
    return 1;
  }
  auto structure = engine.structure();
  std::cout << "Tree decomposition (min-fill, width " << (*td)->Width()
            << "):\n"
            << RenderTree(**td, NamerFor(**structure)) << "\n";

  // Per-attribute decision — every query after the first is a cache hit on
  // the encoding, decomposition and §5.3 bottom-up tables, and walks one
  // root-to-leaf solve↓ path (watch RunStats).
  std::cout << "PRIMALITY decision (Fig. 6 program, one engine session):\n";
  for (AttributeId a = 0; a < schema.NumAttributes(); ++a) {
    RunStats run;
    auto prime = engine.IsPrime(a, &run);
    if (!prime.ok()) {
      std::cerr << "solver failed: " << prime.status() << "\n";
      return 1;
    }
    std::cout << "  " << schema.AttributeName(a) << ": "
              << (*prime ? "prime" : "not prime") << "  (rebuilt "
              << run.td_builds << " decompositions, " << run.cache_hits
              << " cache hits)\n";
  }

  // §5.3 enumeration: one linear two-pass run for all attributes, memoized
  // by the session.
  auto primes = engine.AllPrimes();
  if (!primes.ok()) {
    std::cerr << "enumeration failed: " << primes.status() << "\n";
    return 1;
  }
  std::cout << "\nPRIMALITY enumeration (§5.3, one bottom-up + one top-down "
               "pass):\n  primes = {";
  bool first = true;
  for (AttributeId a = 0; a < schema.NumAttributes(); ++a) {
    if (!(*primes)[static_cast<size_t>(a)]) continue;
    if (!first) std::cout << ", ";
    first = false;
    std::cout << schema.AttributeName(a);
  }
  std::cout << "}\n";

  const RunStats& total = engine.CumulativeStats();
  std::cout << "\nSession totals: " << total.ToString() << "\n";
  std::cout << "(one encoding + one decomposition served every query above)\n";
  std::cout << "\nExpected from the paper: keys {a,b,d} and {a,c,d}; primes "
               "a, b, c, d.\n";
  return 0;
}
