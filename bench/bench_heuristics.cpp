// Decomposition-quality ablation: min-fill vs min-degree vs MCS vs the
// tie-broken min-fill, all against the exact treewidth on random graphs (the
// substrate substitution for Bodlaender's algorithm documented in DESIGN.md).
//
// A second, printed-only table times the greedy heuristics on partial
// 6-trees of growing size (the ROADMAP's min-fill scaling table).
//
// Flags: --quick shrinks the graph count for CI; --json <path> additionally
// writes the deterministic quality counters (total widths per heuristic and
// of the exact treewidth — no wall-clock, so the artifact is comparable
// across runners).
#include <cstdio>
#include <cstring>

#include "common/timer.hpp"
#include "graph/generators.hpp"
#include "td/heuristics.hpp"

namespace treedl {
namespace {

struct BenchConfig {
  int graphs = 32;
  int vertices = 14;
  uint64_t seed = 99;
  const char* json_path = nullptr;
};

/// Deterministic quality totals over the graph family. Every field is an
/// exact integer counter — the regression gate diffs these.
struct QualityTotals {
  size_t exact_width = 0;
  size_t min_fill_width = 0;
  size_t min_degree_width = 0;
  size_t mcs_width = 0;
  size_t tie_break_width = 0;
};

size_t WidthOf(const Graph& graph, TdHeuristic heuristic) {
  auto td = Decompose(graph, heuristic);
  TREEDL_CHECK(td.ok()) << td.status();
  return static_cast<size_t>(td->Width());
}

QualityTotals CollectTotals(const std::vector<Graph>& graphs,
                            const std::vector<int>& exact) {
  QualityTotals totals;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Graph& graph = graphs[i];
    totals.exact_width += static_cast<size_t>(exact[i]);
    totals.min_fill_width += WidthOf(graph, TdHeuristic::kMinFill);
    totals.min_degree_width += WidthOf(graph, TdHeuristic::kMinDegree);
    totals.mcs_width += WidthOf(graph, TdHeuristic::kMcs);
    totals.tie_break_width += WidthOf(graph, TdHeuristic::kMinFillTieBreak);
  }
  return totals;
}

void PrintTable(const BenchConfig& config, const std::vector<Graph>& graphs,
                const std::vector<int>& exact) {
  std::printf("Tree-decomposition heuristics vs exact treewidth\n");
  std::printf("(%d random partial 3-trees, n = %d)\n", config.graphs,
              config.vertices);
  std::printf("%10s %10s %10s %12s\n", "heuristic", "avg width", "excess",
              "time ms/graph");
  struct Row {
    const char* name;
    TdHeuristic heuristic;
  };
  for (Row row : {Row{"min-fill", TdHeuristic::kMinFill},
                  Row{"min-degree", TdHeuristic::kMinDegree},
                  Row{"mcs", TdHeuristic::kMcs},
                  Row{"tie-break", TdHeuristic::kMinFillTieBreak}}) {
    double total_width = 0, total_excess = 0;
    Timer timer;
    for (size_t i = 0; i < graphs.size(); ++i) {
      auto td = Decompose(graphs[i], row.heuristic);
      TREEDL_CHECK(td.ok());
      total_width += td->Width();
      total_excess += td->Width() - exact[static_cast<size_t>(i)];
    }
    double ms = timer.ElapsedMillis() / static_cast<double>(graphs.size());
    std::printf("%10s %10.2f %10.2f %12.3f\n", row.name,
                total_width / static_cast<double>(graphs.size()),
                total_excess / static_cast<double>(graphs.size()), ms);
  }
  double avg_exact = 0;
  for (int w : exact) avg_exact += w;
  std::printf("%10s %10.2f\n", "exact",
              avg_exact / static_cast<double>(exact.size()));
}

// Milliseconds per elimination order on random partial 6-trees (keep 0.6),
// the best of three runs. Printed only: wall-clock never enters the JSON.
void PrintScalingTable(const BenchConfig& config) {
  struct Column {
    const char* name;
    TdHeuristic heuristic;
  };
  const Column columns[] = {{"min-fill", TdHeuristic::kMinFill},
                            {"tie-break", TdHeuristic::kMinFillTieBreak},
                            {"min-degree", TdHeuristic::kMinDegree}};
  std::printf("\nElimination-order time on partial 6-trees (ms/order)\n");
  std::printf("%6s", "n");
  for (const Column& column : columns) std::printf(" %11s", column.name);
  std::printf("\n");
  for (size_t n : {200, 400, 800, 1600}) {
    Rng rng(config.seed + n);
    Graph graph = RandomPartialKTree(n, 6, 0.6, &rng);
    std::printf("%6zu", n);
    for (const Column& column : columns) {
      double best_ms = 0;
      for (int run = 0; run < 3; ++run) {
        Timer timer;
        std::vector<VertexId> order = HeuristicOrder(graph, column.heuristic);
        double ms = timer.ElapsedMillis();
        TREEDL_CHECK(order.size() == n);
        if (run == 0 || ms < best_ms) best_ms = ms;
      }
      std::printf(" %11.2f", best_ms);
    }
    std::printf("\n");
  }
}

void WriteJson(const BenchConfig& config, const QualityTotals& totals) {
  FILE* out = std::fopen(config.json_path, "w");
  TREEDL_CHECK(out != nullptr) << "cannot open " << config.json_path;
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"heuristics\",\n"
               "  \"vertices\": %d,\n"
               "  \"seed\": %llu,\n"
               "  \"graphs\": %d,\n"
               "  \"exact_width_total\": %zu,\n"
               "  \"min_fill_width_total\": %zu,\n"
               "  \"min_degree_width_total\": %zu,\n"
               "  \"mcs_width_total\": %zu,\n"
               "  \"tie_break_width_total\": %zu\n"
               "}\n",
               config.vertices, static_cast<unsigned long long>(config.seed),
               config.graphs, totals.exact_width, totals.min_fill_width,
               totals.min_degree_width, totals.mcs_width,
               totals.tie_break_width);
  std::fclose(out);
  std::printf("  wrote %s\n", config.json_path);
}

void RunHeuristicsBench(const BenchConfig& config) {
  Rng rng(config.seed);
  std::vector<Graph> graphs;
  std::vector<int> exact;
  for (int i = 0; i < config.graphs; ++i) {
    graphs.push_back(RandomPartialKTree(config.vertices, 3, 0.75, &rng));
    exact.push_back(ExactTreewidth(graphs.back()).value());
  }
  PrintTable(config, graphs, exact);
  PrintScalingTable(config);
  if (config.json_path != nullptr) {
    WriteJson(config, CollectTotals(graphs, exact));
  }
}

}  // namespace
}  // namespace treedl

int main(int argc, char** argv) {
  treedl::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.graphs = 16;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      config.json_path = argv[++i];
    }
  }
  treedl::RunHeuristicsBench(config);
  return 0;
}
