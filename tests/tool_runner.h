// Helpers for tests that run the command-line tools as subprocesses.
#pragma once

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace protean {

// ctest runs each test as its own process, in parallel, so a path must
// not collide across processes.
inline std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "-" + name;
}

inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

inline void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

/// Runs `cmd` through the shell, captures its stdout into `out` and its
/// stderr into `err`, and returns the exit status (-1 when the shell did
/// not exit normally).
inline int run_tool(const std::string& cmd, std::string* out = nullptr,
                    std::string* err = nullptr) {
  const std::string out_path = temp_path("tool-stdout.txt");
  const std::string err_path = temp_path("tool-stderr.txt");
  const int raw =
      std::system((cmd + " > " + out_path + " 2> " + err_path).c_str());
  if (out != nullptr) *out = slurp(out_path);
  if (err != nullptr) *err = slurp(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  if (raw == -1 || !WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
}

}  // namespace protean
