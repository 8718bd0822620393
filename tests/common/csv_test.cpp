#include "common/csv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "../testing/temp_dir.h"

namespace subsel {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::process_temp_path("subsel_csv_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  const std::string path = (dir_ / "out.csv").string();
  {
    CsvWriter writer(path, {"a", "b", "c"});
    writer.row(1, 2.5, "x");
    writer.row(3, 4.5, "y");
  }
  EXPECT_EQ(read_file(path), "a,b,c\n1,2.5,x\n3,4.5,y\n");
}

TEST_F(CsvTest, QuotesFieldsWithSeparators) {
  const std::string path = (dir_ / "quoted.csv").string();
  {
    CsvWriter writer(path, {"v"});
    writer.row("hello,world");
    writer.row("say \"hi\"");
  }
  EXPECT_EQ(read_file(path), "v\n\"hello,world\"\n\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, EnsureDirectoryCreatesNestedPath) {
  const auto nested = dir_ / "x" / "y" / "z";
  EXPECT_TRUE(ensure_directory(nested.string()));
  EXPECT_TRUE(std::filesystem::is_directory(nested));
  // Idempotent.
  EXPECT_TRUE(ensure_directory(nested.string()));
}

}  // namespace
}  // namespace subsel
