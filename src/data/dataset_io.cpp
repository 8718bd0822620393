#include "data/dataset_io.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/serialize.h"

namespace subsel::data {
namespace {

/// Shared with the dataset cache: bump when the layout changes.
constexpr std::uint64_t kDatasetIoMagic = 0x53554253454C3144ULL;  // "SUBSEL1D"

/// Fills `dataset`'s payload from a save_dataset file at `path` (the name is
/// left alone). Throws std::runtime_error naming the check that failed; the
/// graph loader's messages also name the ".graph" file.
void read_dataset(const std::string& path, Dataset& dataset) {
  BinaryReader reader(path);
  if (reader.read_pod<std::uint64_t>() != kDatasetIoMagic) {
    throw std::runtime_error("bad magic (not a dataset, or another version)");
  }
  const auto rows = reader.read_pod<std::uint64_t>();
  const auto dim = reader.read_pod<std::uint64_t>();
  dataset.embeddings = graph::EmbeddingMatrix(rows, dim);
  const auto flat = reader.read_vector<float>();
  if (flat.size() != rows * dim) {
    throw std::runtime_error("embedding payload is not rows x dim");
  }
  std::copy(flat.begin(), flat.end(), dataset.embeddings.flat().begin());
  dataset.labels = reader.read_vector<std::uint32_t>();
  dataset.utilities = reader.read_vector<double>();
  dataset.graph = graph::SimilarityGraph::load(path + ".graph");
  if (dataset.graph.num_nodes() != dataset.labels.size() ||
      dataset.utilities.size() != dataset.labels.size()) {
    throw std::runtime_error(
        "graph, labels and utilities disagree on the point count");
  }
}

}  // namespace

void save_dataset(const Dataset& dataset, const std::string& path) {
  std::error_code error;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, error);

  BinaryWriter writer(path);
  writer.write_pod(kDatasetIoMagic);
  writer.write_pod<std::uint64_t>(dataset.embeddings.rows());
  writer.write_pod<std::uint64_t>(dataset.embeddings.dim());
  std::vector<float> flat(dataset.embeddings.flat().begin(),
                          dataset.embeddings.flat().end());
  writer.write_vector(flat);
  writer.write_vector(dataset.labels);
  writer.write_vector(dataset.utilities);
  if (!writer.ok()) throw std::runtime_error("save_dataset: write failed: " + path);
  dataset.graph.save(path + ".graph");
}

bool try_load_dataset(const std::string& path, Dataset& dataset) {
  try {
    read_dataset(path, dataset);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

Dataset load_dataset(const std::string& path) {
  Dataset dataset;
  try {
    read_dataset(path, dataset);
  } catch (const std::exception& e) {
    throw std::runtime_error("load_dataset: cannot load " + path + ": " + e.what());
  }
  dataset.name = std::filesystem::path(path).stem().string();
  return dataset;
}

DatasetScalars load_dataset_scalars(const std::string& path) {
  BinaryReader reader(path);
  if (reader.read_pod<std::uint64_t>() != kDatasetIoMagic) {
    throw std::runtime_error("load_dataset_scalars: bad magic in " + path);
  }
  (void)reader.read_pod<std::uint64_t>();  // rows
  (void)reader.read_pod<std::uint64_t>();  // dim
  reader.skip_vector<float>();             // embeddings stay on disk
  DatasetScalars scalars;
  scalars.name = std::filesystem::path(path).stem().string();
  scalars.labels = reader.read_vector<std::uint32_t>();
  scalars.utilities = reader.read_vector<double>();
  if (scalars.labels.size() != scalars.utilities.size()) {
    throw std::runtime_error("load_dataset_scalars: corrupt scalars in " + path);
  }
  return scalars;
}

void save_subset(const std::vector<graph::NodeId>& ids, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("save_subset: cannot open " + path);
  for (graph::NodeId v : ids) out << v << '\n';
  if (!out.good()) throw std::runtime_error("save_subset: write failed: " + path);
}

std::vector<graph::NodeId> load_subset(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_subset: cannot open " + path);
  std::vector<graph::NodeId> ids;
  long long value = 0;
  while (in >> value) ids.push_back(static_cast<graph::NodeId>(value));
  if (in.bad()) throw std::runtime_error("load_subset: read failed: " + path);
  return ids;
}

std::vector<double> load_value_file(const std::string& path, const char* what) {
  std::ifstream file(path);
  if (!file) {
    throw std::invalid_argument(std::string("cannot open ") + what + " file " +
                                path);
  }
  std::vector<double> values;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(line.c_str(), &end);
    if (end == line.c_str() || *end != '\0' || errno == ERANGE) {
      throw std::invalid_argument(std::string(what) + " file " + path +
                                  " line " + std::to_string(line_no) +
                                  " is not a number: \"" + line + "\"");
    }
    values.push_back(parsed);
  }
  return values;
}

std::vector<std::uint32_t> load_group_file(const std::string& path) {
  const std::vector<double> raw = load_value_file(path, "group");
  std::vector<std::uint32_t> groups;
  groups.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] < 0.0 ||
        raw[i] != static_cast<double>(static_cast<std::uint32_t>(raw[i]))) {
      throw std::invalid_argument("group file " + path + " line " +
                                  std::to_string(i + 1) +
                                  " is not a non-negative integer group id");
    }
    groups.push_back(static_cast<std::uint32_t>(raw[i]));
  }
  return groups;
}

}  // namespace subsel::data
