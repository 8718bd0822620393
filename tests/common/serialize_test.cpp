#include "common/serialize.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "../testing/temp_dir.h"

namespace subsel {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::process_temp_path("subsel_serialize_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(SerializeTest, RoundTripsPods) {
  const std::string file = path("pods.bin");
  {
    BinaryWriter writer(file);
    writer.write_pod<std::uint64_t>(0xdeadbeefULL);
    writer.write_pod<double>(3.25);
    writer.write_pod<std::int32_t>(-7);
    ASSERT_TRUE(writer.ok());
  }
  BinaryReader reader(file);
  EXPECT_EQ(reader.read_pod<std::uint64_t>(), 0xdeadbeefULL);
  EXPECT_EQ(reader.read_pod<double>(), 3.25);
  EXPECT_EQ(reader.read_pod<std::int32_t>(), -7);
}

TEST_F(SerializeTest, RoundTripsVectors) {
  const std::string file = path("vec.bin");
  const std::vector<float> floats{1.0f, -2.5f, 3.75f};
  const std::vector<std::int64_t> ints{10, -20, 30, 40};
  {
    BinaryWriter writer(file);
    writer.write_vector(floats);
    writer.write_vector(ints);
  }
  BinaryReader reader(file);
  EXPECT_EQ(reader.read_vector<float>(), floats);
  EXPECT_EQ(reader.read_vector<std::int64_t>(), ints);
}

TEST_F(SerializeTest, EmptyVectorRoundTrips) {
  const std::string file = path("empty.bin");
  {
    BinaryWriter writer(file);
    writer.write_vector(std::vector<double>{});
  }
  BinaryReader reader(file);
  EXPECT_TRUE(reader.read_vector<double>().empty());
}

TEST_F(SerializeTest, TruncatedReadThrows) {
  const std::string file = path("trunc.bin");
  {
    BinaryWriter writer(file);
    writer.write_pod<std::uint32_t>(1);
  }
  BinaryReader reader(file);
  EXPECT_THROW(reader.read_pod<std::uint64_t>(), std::runtime_error);
}

TEST_F(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(BinaryReader reader(path("missing.bin")), std::runtime_error);
}

}  // namespace
}  // namespace subsel
