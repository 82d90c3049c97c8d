// Scratch paths for tests, unique per process: two concurrent runs of one
// test binary (ctest -j, or a second copy of the suite alongside) never
// share — or delete — each other's files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace fv::test {

/// temp_directory_path()/<name>.<pid>
inline std::string scratch_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid())))
      .string();
}

/// scratch_path() of `prefix` followed by the running test's name ('/' of
/// a parameterized name replaced): unique per test and per process.
inline std::string test_scratch_path(const std::string& prefix) {
  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return scratch_path(prefix + name);
}

}  // namespace fv::test
