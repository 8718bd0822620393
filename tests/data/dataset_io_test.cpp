// Round-trip and failure behavior of the public dataset/subset IO.
#include "data/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../testing/temp_dir.h"
#include "common/serialize.h"
#include "core/objective.h"

namespace subsel::data {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::process_temp_path("subsel_io_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(DatasetIoTest, DatasetRoundTripPreservesEverything) {
  const Dataset original = toy_dataset(500, 10, 77);
  save_dataset(original, path("roundtrip"));
  const Dataset loaded = load_dataset(path("roundtrip"));

  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.embeddings.dim(), original.embeddings.dim());
  EXPECT_EQ(loaded.labels, original.labels);
  EXPECT_EQ(loaded.utilities, original.utilities);

  // Graph equality via full neighbor comparison.
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(original.size()); ++v) {
    const auto a = original.graph.neighbors(v);
    const auto b = loaded.graph.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    for (std::size_t e = 0; e < a.size(); ++e) {
      EXPECT_EQ(a[e], b[e]) << "node " << v << " edge " << e;
    }
  }

  // Embedding payload equality.
  const auto original_flat = original.embeddings.flat();
  const auto loaded_flat = loaded.embeddings.flat();
  ASSERT_EQ(original_flat.size(), loaded_flat.size());
  for (std::size_t i = 0; i < original_flat.size(); ++i) {
    EXPECT_EQ(original_flat[i], loaded_flat[i]);
  }
}

TEST_F(DatasetIoTest, RoundTripPreservesObjectiveValues) {
  const Dataset original = toy_dataset(300, 8, 78);
  save_dataset(original, path("objective"));
  const Dataset loaded = load_dataset(path("objective"));

  std::vector<core::NodeId> subset;
  for (core::NodeId v = 0; v < 300; v += 4) subset.push_back(v);
  const auto params = core::ObjectiveParams::from_alpha(0.9);
  const auto original_gs = original.ground_set();
  const auto loaded_gs = loaded.ground_set();
  core::PairwiseObjective before(original_gs, params);
  core::PairwiseObjective after(loaded_gs, params);
  EXPECT_EQ(before.evaluate(subset), after.evaluate(subset));
}

TEST_F(DatasetIoTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_dataset(path("does_not_exist")), std::runtime_error);
  Dataset dataset;
  EXPECT_FALSE(try_load_dataset(path("does_not_exist"), dataset));
}

TEST_F(DatasetIoTest, LoadRejectsWrongMagic) {
  {
    std::ofstream out(path("garbage"), std::ios::binary);
    const std::uint64_t junk = 0xdeadbeefULL;
    out.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
    for (int i = 0; i < 64; ++i) out.put(static_cast<char>(i));
  }
  Dataset dataset;
  EXPECT_FALSE(try_load_dataset(path("garbage"), dataset));
}

TEST_F(DatasetIoTest, LoadRejectsTruncatedFile) {
  const Dataset original = toy_dataset(200, 5, 79);
  save_dataset(original, path("trunc"));
  // Chop the tail off the main file.
  const auto full_size = std::filesystem::file_size(path("trunc"));
  std::filesystem::resize_file(path("trunc"), full_size / 2);
  Dataset dataset;
  EXPECT_FALSE(try_load_dataset(path("trunc"), dataset));
}

TEST_F(DatasetIoTest, LoadRejectsMissingGraphSidecar) {
  const Dataset original = toy_dataset(200, 5, 80);
  save_dataset(original, path("nograph"));
  std::filesystem::remove(path("nograph") + ".graph");
  Dataset dataset;
  EXPECT_FALSE(try_load_dataset(path("nograph"), dataset));
}

TEST_F(DatasetIoTest, LoadErrorNamesTheFailedGraphCheck) {
  // A graph file whose row 17 names node 17 itself: load_dataset must say
  // which check failed, not only that the load did.
  const Dataset original = toy_dataset(200, 5, 81);
  save_dataset(original, path("selfloop"));
  std::vector<std::int64_t> offsets{0};
  std::vector<graph::Edge> edges;
  for (graph::NodeId v = 0; v < 200; ++v) {
    for (const graph::Edge& e : original.graph.neighbors(v)) edges.push_back(e);
    offsets.push_back(static_cast<std::int64_t>(edges.size()));
  }
  ASSERT_LT(offsets[17], offsets[18]);
  edges[static_cast<std::size_t>(offsets[17])].neighbor = 17;
  {
    BinaryWriter writer(path("selfloop") + ".graph");  // SimilarityGraph::save's layout
    writer.write_pod(std::uint64_t{0x5355424752415048ULL});  // "SUBGRAPH"
    writer.write_pod(std::uint32_t{1});
    writer.write_vector(offsets);
    writer.write_vector(edges);
    ASSERT_TRUE(writer.ok());
  }
  try {
    (void)load_dataset(path("selfloop"));
    ADD_FAILURE() << "a graph with a self loop loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("self loop"), std::string::npos) << e.what();
  }
  Dataset dataset;
  EXPECT_FALSE(try_load_dataset(path("selfloop"), dataset));
}

TEST_F(DatasetIoTest, ScalarsLoadSkipsEmbeddingsButMatches) {
  const Dataset original = toy_dataset(400, 8, 82);
  save_dataset(original, path("scalars"));
  const DatasetScalars scalars = load_dataset_scalars(path("scalars"));
  EXPECT_EQ(scalars.labels, original.labels);
  EXPECT_EQ(scalars.utilities, original.utilities);
}

TEST_F(DatasetIoTest, ScalarsLoadRejectsWrongMagic) {
  {
    std::ofstream out(path("notdata"), std::ios::binary);
    out << "nope";
  }
  EXPECT_THROW(load_dataset_scalars(path("notdata")), std::runtime_error);
}

TEST_F(DatasetIoTest, SubsetRoundTrip) {
  const std::vector<graph::NodeId> ids{0, 5, 17, 100000, 123456789};
  save_subset(ids, path("subset.ids"));
  EXPECT_EQ(load_subset(path("subset.ids")), ids);
}

TEST_F(DatasetIoTest, EmptySubsetRoundTrip) {
  save_subset({}, path("empty.ids"));
  EXPECT_TRUE(load_subset(path("empty.ids")).empty());
}

TEST_F(DatasetIoTest, SaveCreatesParentDirectories) {
  const Dataset original = toy_dataset(100, 4, 81);
  const std::string nested = path("a/b/c/data");
  save_dataset(original, nested);
  EXPECT_TRUE(std::filesystem::exists(nested));
  EXPECT_TRUE(std::filesystem::exists(nested + ".graph"));
}

}  // namespace
}  // namespace subsel::data
