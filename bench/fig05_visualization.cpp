// Figure 5 / Appendix C: 2-D visualization of the chosen 10 % subset of
// CIFAR-100 as the number of partitions grows (1 round each). The paper uses
// t-SNE; we use a deterministic PCA projection — the point of
// the figure is *where* selections fall: the centralized run spreads them
// uniformly over the plane, many partitions create local utility clusters
// because cross-partition edges (diversity information) are lost.
//
// Output: an ASCII raster per partition count ('.': ground set present,
// digits: number of selected points in the cell) plus a quantitative
// dispersion row — the fraction of occupied grid cells covered by the
// selection and the mean pairwise 2-D distance among selected points, both of
// which shrink as partitions grow.
#include <array>
#include <cmath>

#include "bench_util.h"
#include "graph/pca.h"

using namespace subsel;
using namespace subsel::bench;

namespace {

constexpr std::size_t kGridWidth = 64;
constexpr std::size_t kGridHeight = 24;

struct Dispersion {
  double cell_coverage = 0.0;   // occupied selected-cells / occupied cells
  double mean_distance = 0.0;   // mean pairwise distance in PCA space
};

Dispersion rasterize(const graph::Projection2D& projection,
                     const std::vector<core::NodeId>& selected, bool print) {
  float min_x = projection.x[0], max_x = projection.x[0];
  float min_y = projection.y[0], max_y = projection.y[0];
  for (std::size_t i = 0; i < projection.x.size(); ++i) {
    min_x = std::min(min_x, projection.x[i]);
    max_x = std::max(max_x, projection.x[i]);
    min_y = std::min(min_y, projection.y[i]);
    max_y = std::max(max_y, projection.y[i]);
  }
  const float span_x = std::max(max_x - min_x, 1e-9f);
  const float span_y = std::max(max_y - min_y, 1e-9f);

  auto cell_of = [&](std::size_t i) {
    auto cx = static_cast<std::size_t>((projection.x[i] - min_x) / span_x *
                                       (kGridWidth - 1));
    auto cy = static_cast<std::size_t>((projection.y[i] - min_y) / span_y *
                                       (kGridHeight - 1));
    return cy * kGridWidth + cx;
  };

  std::vector<std::uint16_t> base(kGridWidth * kGridHeight, 0);
  std::vector<std::uint16_t> chosen(kGridWidth * kGridHeight, 0);
  for (std::size_t i = 0; i < projection.x.size(); ++i) ++base[cell_of(i)];
  for (core::NodeId v : selected) ++chosen[cell_of(static_cast<std::size_t>(v))];

  if (print) {
    for (std::size_t row = 0; row < kGridHeight; ++row) {
      std::fputs("  ", stdout);
      for (std::size_t col = 0; col < kGridWidth; ++col) {
        const std::size_t cell = row * kGridWidth + col;
        char glyph = ' ';
        if (chosen[cell] > 9) {
          glyph = '#';
        } else if (chosen[cell] > 0) {
          glyph = static_cast<char>('0' + chosen[cell]);
        } else if (base[cell] > 0) {
          glyph = '.';
        }
        std::fputc(glyph, stdout);
      }
      std::fputc('\n', stdout);
    }
  }

  Dispersion dispersion;
  std::size_t occupied = 0, covered = 0;
  for (std::size_t cell = 0; cell < base.size(); ++cell) {
    if (base[cell] > 0) {
      ++occupied;
      if (chosen[cell] > 0) ++covered;
    }
  }
  dispersion.cell_coverage =
      occupied > 0 ? static_cast<double>(covered) / static_cast<double>(occupied)
                   : 0.0;

  // Mean pairwise distance over a bounded sample of the selection.
  const std::size_t sample = std::min<std::size_t>(selected.size(), 512);
  double total = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < sample; ++i) {
    for (std::size_t j = i + 1; j < sample; ++j) {
      const auto a = static_cast<std::size_t>(selected[i]);
      const auto b = static_cast<std::size_t>(selected[j]);
      const double dx = projection.x[a] - projection.x[b];
      const double dy = projection.y[a] - projection.y[b];
      total += std::sqrt(dx * dx + dy * dy);
      ++pairs;
    }
  }
  dispersion.mean_distance = pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
  return dispersion;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const double scale = args.get_double("scale", 0.1);
  const bool quiet = args.has_flag("no-raster");
  const auto dataset = data::cifar_proxy(scale);
  const auto k = static_cast<std::size_t>(0.1 * dataset.size());
  std::printf("=== Figure 5: selection visualization (CIFAR proxy, %zu points,"
              " k=%zu) ===\n", dataset.size(), k);

  const auto projection = graph::pca_project_2d(dataset.embeddings);
  const auto ground_set = dataset.ground_set();
  const auto params = core::ObjectiveParams::from_alpha(0.9);
  const core::PairwiseKernel kernel(ground_set, params);

  CsvWriter csv(results_dir() + "/fig05_visualization.csv",
                {"partitions", "node", "x", "y", "label", "selected"});

  for (const std::size_t partitions : {std::size_t{1}, std::size_t{4},
                                       std::size_t{16}, std::size_t{32}}) {
    std::vector<core::NodeId> selected;
    if (partitions == 1) {
      selected =
          core::centralized_greedy(dataset.graph, dataset.utilities, params, k)
              .selected;
    } else {
      core::DistributedGreedyConfig config;
      config.num_machines = partitions;
      config.num_rounds = 1;
      config.adaptive_partitioning = false;
      selected = core::distributed_greedy(kernel, k, config).selected;
    }

    std::printf("\n--- %zu partition(s), 1 round ---\n", partitions);
    const Dispersion dispersion = rasterize(projection, selected, !quiet);

    // The quantitative core of the figure: with more partitions the
    // selection "clusters locally" = the graph's pairwise similarity mass
    // inside S grows (the per-partition runs cannot see the diversity
    // penalty of edges that crossed partition lines).
    const auto member = core::membership_bitmap(dataset.size(), selected);
    double internal_similarity = 0.0;
    std::size_t internal_edges = 0;
    std::vector<graph::Edge> edges;
    for (core::NodeId v : selected) {
      for (const graph::Edge& e : ground_set.neighbors_span(v, edges)) {
        if (member[static_cast<std::size_t>(e.neighbor)] != 0) {
          internal_similarity += e.weight;
          ++internal_edges;
        }
      }
    }
    internal_similarity /= 2.0;  // both directions counted
    internal_edges /= 2;
    std::printf("cell coverage %.3f, mean pairwise 2-D distance %.3f, internal"
                " similarity %.2f over %zu in-subset edges\n",
                dispersion.cell_coverage, dispersion.mean_distance,
                internal_similarity, internal_edges);

    std::vector<std::uint8_t> membership =
        core::membership_bitmap(dataset.size(), selected);
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      csv.row(partitions, i, projection.x[i], projection.y[i], dataset.labels[i],
              static_cast<int>(membership[i]));
    }
  }

  std::printf("\npaper shape: internal (in-subset) similarity grows with the"
              " number of partitions — the centralized run spreads points to"
              " avoid neighbor pairs, many partitions collapse into local"
              " utility clusters.\n");
  return 0;
}
