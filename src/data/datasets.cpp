#include "data/datasets.h"

#include "data/dataset_io.h"

#include <cstdlib>
#include <filesystem>

#include "common/log.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/timer.h"

namespace subsel::data {
namespace {

/// Stable content key over every config field that influences the artifact.
std::uint64_t config_fingerprint(const DatasetConfig& config) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t value) { h = hash_combine(h, value); };
  for (char c : config.name) mix(static_cast<std::uint64_t>(c));
  mix(config.embeddings.num_points);
  mix(config.embeddings.dim);
  mix(config.embeddings.num_classes);
  mix(static_cast<std::uint64_t>(config.embeddings.cluster_stddev * 1e9));
  mix(config.embeddings.seed);
  mix(static_cast<std::uint64_t>(config.classifier.temperature * 1e9));
  mix(static_cast<std::uint64_t>(config.classifier.center_noise * 1e9));
  mix(config.classifier.seed);
  mix(config.knn.num_neighbors);
  mix(config.knn.num_clusters);
  mix(config.knn.num_probes);
  mix(config.knn.kmeans_iterations);
  mix(config.knn.seed);
  mix(config.exact_knn_threshold);
  return h;
}

std::string cache_directory() {
  const char* env = std::getenv("SUBSEL_CACHE_DIR");
  if (env != nullptr) return env;
  return "/tmp/subsel_cache";
}

std::string cache_path(const DatasetConfig& config) {
  const std::string dir = cache_directory();
  if (dir.empty()) return {};
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "%016llx",
                static_cast<unsigned long long>(config_fingerprint(config)));
  return dir + "/" + config.name + "_" + suffix + ".bin";
}

bool try_load(const std::string& path, Dataset& dataset) {
  // The cache file IS the public dataset_io format; the config fingerprint
  // in the file name keys the artifact.
  return try_load_dataset(path, dataset);
}

void try_save(const std::string& path, const Dataset& dataset) {
  if (path.empty()) return;
  try {
    save_dataset(dataset, path);
  } catch (const std::exception& e) {
    LOG_WARN("dataset cache write failed (%s); continuing uncached", e.what());
  }
}

}  // namespace

Dataset make_dataset(const DatasetConfig& config) {
  Dataset dataset;
  dataset.name = config.name;
  const std::string path = cache_path(config);
  if (try_load(path, dataset)) {
    LOG_DEBUG("dataset %s: loaded from cache %s", config.name.c_str(), path.c_str());
    return dataset;
  }

  Timer timer;
  ClusteredEmbeddings generated = generate_clustered_embeddings(config.embeddings);
  dataset.embeddings = std::move(generated.points);
  dataset.labels = std::move(generated.labels);
  LOG_INFO("dataset %s: generated %zu x %zu embeddings in %s", config.name.c_str(),
           dataset.embeddings.rows(), dataset.embeddings.dim(),
           format_duration(timer.elapsed_seconds()).c_str());

  timer.reset();
  CoarseClassifier classifier(generated.centers, config.classifier);
  dataset.utilities = compute_margin_utilities(dataset.embeddings, classifier);
  LOG_INFO("dataset %s: margin utilities in %s", config.name.c_str(),
           format_duration(timer.elapsed_seconds()).c_str());

  timer.reset();
  dataset.graph = graph::build_similarity_graph(dataset.embeddings, config.knn,
                                                config.exact_knn_threshold);
  LOG_INFO("dataset %s: %zu-NN graph (%zu nodes, avg degree %.1f) in %s",
           config.name.c_str(), config.knn.num_neighbors, dataset.graph.num_nodes(),
           dataset.graph.average_degree(),
           format_duration(timer.elapsed_seconds()).c_str());

  try_save(path, dataset);
  return dataset;
}

Dataset cifar_proxy(double scale, std::uint64_t seed) {
  DatasetConfig config;
  config.name = "cifar100_proxy";
  config.embeddings.num_points = static_cast<std::size_t>(50'000 * scale);
  config.embeddings.dim = 64;
  config.embeddings.num_classes = 100;
  config.embeddings.seed = seed;
  config.knn.num_neighbors = 10;
  config.knn.seed = seed + 1;
  return make_dataset(config);
}

Dataset imagenet_proxy(double scale, std::uint64_t seed) {
  DatasetConfig config;
  config.name = "imagenet_proxy";
  config.embeddings.num_points = static_cast<std::size_t>(120'000 * scale);
  config.embeddings.dim = 128;
  config.embeddings.num_classes = 1000;
  config.embeddings.seed = seed;
  config.knn.num_neighbors = 10;
  config.knn.seed = seed + 1;
  return make_dataset(config);
}

Dataset toy_dataset(std::size_t num_points, std::size_t num_classes,
                    std::uint64_t seed) {
  DatasetConfig config;
  config.name = "toy";
  config.embeddings.num_points = num_points;
  config.embeddings.dim = 16;
  config.embeddings.num_classes = num_classes;
  config.embeddings.seed = seed;
  config.knn.num_neighbors = 5;
  config.exact_knn_threshold = 1u << 20;  // always exact
  return make_dataset(config);
}

}  // namespace subsel::data
