#include "data/datasets.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "../testing/temp_dir.h"

namespace subsel::data {
namespace {

class DatasetsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cache_dir_ = testing::process_temp_path("subsel_datasets_test");
    std::filesystem::remove_all(cache_dir_);
    std::filesystem::create_directories(cache_dir_);
    setenv("SUBSEL_CACHE_DIR", cache_dir_.c_str(), 1);
  }
  void TearDown() override {
    unsetenv("SUBSEL_CACHE_DIR");
    std::filesystem::remove_all(cache_dir_);
  }

  std::filesystem::path cache_dir_;
};

DatasetConfig tiny_config() {
  DatasetConfig config;
  config.name = "tiny";
  config.embeddings.num_points = 300;
  config.embeddings.dim = 16;
  config.embeddings.num_classes = 6;
  config.knn.num_neighbors = 4;
  return config;
}

TEST_F(DatasetsTest, BuildsConsistentDataset) {
  const Dataset dataset = make_dataset(tiny_config());
  EXPECT_EQ(dataset.size(), 300u);
  EXPECT_EQ(dataset.embeddings.rows(), 300u);
  EXPECT_EQ(dataset.labels.size(), 300u);
  EXPECT_EQ(dataset.utilities.size(), 300u);
  EXPECT_TRUE(dataset.graph.is_symmetric());
  EXPECT_GE(dataset.graph.min_degree(), 4u);
  for (double u : dataset.utilities) EXPECT_GE(u, 0.0);
}

TEST_F(DatasetsTest, CacheRoundTripsExactly) {
  const Dataset first = make_dataset(tiny_config());
  // Second call must hit the cache (same fingerprint) and be identical.
  const Dataset second = make_dataset(tiny_config());
  EXPECT_EQ(first.labels, second.labels);
  EXPECT_EQ(first.utilities, second.utilities);
  EXPECT_EQ(first.graph.num_edges(), second.graph.num_edges());
  // The cache directory should now contain the artifacts.
  std::size_t files = 0;
  for (auto it : std::filesystem::directory_iterator(cache_dir_)) {
    (void)it;
    ++files;
  }
  EXPECT_GE(files, 2u);  // dataset blob + graph
}

TEST_F(DatasetsTest, DifferentConfigsGetDifferentCacheEntries) {
  auto config = tiny_config();
  const Dataset a = make_dataset(config);
  config.embeddings.seed += 1;
  const Dataset b = make_dataset(config);
  EXPECT_NE(a.utilities, b.utilities);
}

TEST_F(DatasetsTest, GroundSetViewIsCoherent) {
  const Dataset dataset = make_dataset(tiny_config());
  const auto ground_set = dataset.ground_set();
  EXPECT_EQ(ground_set.num_points(), dataset.size());
  EXPECT_EQ(ground_set.utility(7), dataset.utilities[7]);
  std::vector<graph::Edge> neighbors;
  ground_set.neighbors(7, neighbors);
  EXPECT_EQ(neighbors.size(), dataset.graph.degree(7));
}

TEST_F(DatasetsTest, ToyDatasetIsSmallAndValid) {
  const Dataset toy = toy_dataset(128, 4, 9);
  EXPECT_EQ(toy.size(), 128u);
  EXPECT_TRUE(toy.graph.is_symmetric());
}

TEST_F(DatasetsTest, ProxyShapesFollowPaper) {
  // Tiny scales to keep the test fast; the shape ratios are what matter.
  const Dataset cifar = cifar_proxy(0.02);   // 1000 points
  EXPECT_EQ(cifar.size(), 1000u);
  EXPECT_EQ(cifar.embeddings.dim(), 64u);    // paper: 64-d CIFAR embeddings
  const Dataset imagenet = imagenet_proxy(0.01);  // 1200 points
  EXPECT_EQ(imagenet.size(), 1200u);
  EXPECT_EQ(imagenet.embeddings.dim(), 128u);
}

}  // namespace
}  // namespace subsel::data
