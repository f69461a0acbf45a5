// Ablation: the f(w) factor of Cor 4.6 / Thm 5.3. At fixed data size, the
// PRIMALITY DP's state count and runtime grow steeply with the width of the
// decomposition (FD-window schemas of increasing window).
//
// Flags: --quick replaces the PRIMALITY timing sweep with the deterministic
// decomposition-quality sweep alone (for CI); --json <path> writes the
// quality counters: the total width and modeled DP cost (Normalize +
// EstimateNodeCost) of the default min-fill decomposition of every
// instance's Gaifman graph.
#include <cstdio>
#include <cstring>

#include "common/timer.hpp"
#include "engine/engine.hpp"
#include "graph/gaifman.hpp"
#include "schema/encode.hpp"
#include "schema/generators.hpp"
#include "td/heuristics.hpp"
#include "td/improve.hpp"

namespace treedl {
namespace {

struct BenchConfig {
  bool quick = false;
  const char* json_path = nullptr;
};

constexpr int kWindows[] = {2, 3, 4, 5, 6};
constexpr int kVariants = 3;  // seed variants per window

/// Deterministic min-fill totals over the instance family.
struct QualityTotals {
  size_t instances = 0;
  size_t baseline_width = 0;  // plain kMinFill, the session decomposition
  uint64_t baseline_cost = 0;  // Σ NormalizedDpCost
};

Graph InstanceGaifman(int window, int variant) {
  Rng rng(static_cast<uint64_t>(window) * 31 + 5 +
          static_cast<uint64_t>(variant) * 7919);
  Schema schema = RandomWindowSchema(36, 24, window, &rng);
  SchemaEncoding encoding = EncodeSchema(schema);
  return GaifmanGraph(encoding.structure);
}

QualityTotals CollectTotals() {
  QualityTotals totals;
  for (int window : kWindows) {
    for (int variant = 0; variant < kVariants; ++variant) {
      Graph graph = InstanceGaifman(window, variant);
      auto baseline = Decompose(graph, TdHeuristic::kMinFill);
      TREEDL_CHECK(baseline.ok()) << baseline.status();
      ++totals.instances;
      totals.baseline_width += static_cast<size_t>(baseline->Width());
      totals.baseline_cost += NormalizedDpCost(*baseline).value();
    }
  }
  return totals;
}

void WriteJson(const BenchConfig& config, const QualityTotals& totals) {
  FILE* out = std::fopen(config.json_path, "w");
  TREEDL_CHECK(out != nullptr) << "cannot open " << config.json_path;
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"width_sweep\",\n"
               "  \"num_attributes\": 36,\n"
               "  \"num_fds\": 24,\n"
               "  \"instances\": %zu,\n"
               "  \"baseline_width_total\": %zu,\n"
               "  \"baseline_cost_total\": %llu\n"
               "}\n",
               totals.instances, totals.baseline_width,
               static_cast<unsigned long long>(totals.baseline_cost));
  std::fclose(out);
  std::printf("  wrote %s\n", config.json_path);
}

void RunQualitySweep(const BenchConfig& config) {
  QualityTotals totals = CollectTotals();
  std::printf("Decomposition quality: min-fill\n");
  std::printf("(%zu FD-window Gaifman graphs, 36 attrs, 24 FDs)\n",
              totals.instances);
  std::printf("  width total %zu, modeled DP cost total %llu\n",
              totals.baseline_width,
              static_cast<unsigned long long>(totals.baseline_cost));
  if (config.json_path != nullptr) WriteJson(config, totals);
}

void RunWidthSweep() {
  std::printf("PRIMALITY DP cost vs decomposition width (fixed ~36 attrs)\n");
  std::printf("%7s %6s %10s %14s %14s\n", "window", "width", "time ms",
              "total states", "max/node");
  for (int window : {2, 3, 4, 5, 6}) {
    Rng rng(static_cast<uint64_t>(window) * 31 + 5);
    Schema schema = RandomWindowSchema(36, 24, window, &rng);
    Engine engine(schema);
    int width = engine.Width().value_or(-1);
    Timer timer;
    RunStats run;
    auto primes = engine.AllPrimes(&run);
    double ms = timer.ElapsedMillis();
    TREEDL_CHECK(primes.ok()) << primes.status();
    std::printf("%7d %6d %10.2f %14zu %14zu\n", window, width, ms,
                run.dp_states, run.dp_max_states_per_node);
  }
  std::printf("\n(time and states grow exponentially in the width — the f(w) "
              "of Cor 4.6 —\n while Table 1 shows linear growth in the data "
              "at fixed width)\n");
}

}  // namespace
}  // namespace treedl

int main(int argc, char** argv) {
  treedl::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config.json_path = argv[++i];
    }
  }
  if (!config.quick) treedl::RunWidthSweep();
  if (config.quick || config.json_path != nullptr) {
    treedl::RunQualitySweep(config);
  }
  return 0;
}
