// Public dataset (de)serialization — the same binary format the dataset
// cache uses, exposed so external tooling (tools/subsel_cli) can hand
// datasets and selections between processes.
//
// A dataset saved at prefix P occupies two files: P (embeddings, labels,
// utilities) and P.graph (the CSR similarity graph). Selections are plain
// one-id-per-line text files so they interoperate with shell tooling.
#pragma once

#include <string>
#include <vector>

#include "data/datasets.h"

namespace subsel::data {

/// Writes `dataset` to `path` (+ ".graph"). Throws std::runtime_error on IO
/// failure.
void save_dataset(const Dataset& dataset, const std::string& path);

/// Loads a dataset previously written by save_dataset. Best-effort variant
/// returns false instead of throwing (used by the dataset cache).
bool try_load_dataset(const std::string& path, Dataset& dataset);

/// Loading variant that throws std::runtime_error naming the check that
/// failed (missing file, bad magic, a size mismatch, or the graph loader's
/// own reason, e.g. "self loop").
Dataset load_dataset(const std::string& path);

/// Per-point scalars of a saved dataset, without the embeddings or the
/// graph — the resident data a DiskGroundSet run needs.
struct DatasetScalars {
  std::string name;
  std::vector<std::uint32_t> labels;
  std::vector<double> utilities;
};

/// Loads labels and utilities from a save_dataset file, skipping the
/// embedding payload and leaving the adjacency on disk (pair with
/// graph::DiskGroundSet over path + ".graph"). Throws on failure.
DatasetScalars load_dataset_scalars(const std::string& path);

/// One node id per line, ascending recommended but not required.
void save_subset(const std::vector<graph::NodeId>& ids, const std::string& path);
std::vector<graph::NodeId> load_subset(const std::string& path);

/// One-value-per-line numeric sidecar file (per-element costs, group ids):
/// line i is element i. Blank or non-numeric lines are rejected with
/// std::invalid_argument carrying the line number — a silent skip would
/// shift every later element. `what` names the file kind in error messages.
std::vector<double> load_value_file(const std::string& path, const char* what);

/// load_value_file specialized to partition-matroid group ids: every line
/// must be a non-negative integer.
std::vector<std::uint32_t> load_group_file(const std::string& path);

}  // namespace subsel::data
