// Per-process paths for test fixtures under the system temp directory.
//
// Copies of one test binary may run at the same time (repeated runs side by
// side, a sanitizer build next to a plain one). A fixture written to a fixed
// name under temp_directory_path() is then overwritten by another copy in the
// middle of a test, so every fixture path carries the process id.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

namespace subsel::testing {

/// temp_directory_path() / "<name>_<pid>". Creates nothing.
inline std::filesystem::path process_temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         (name + "_" + std::to_string(::getpid()));
}

}  // namespace subsel::testing
