// Strict positional-argument parsing shared by the examples.
//
// The examples take positional args (./method_explorer engine 16 ...),
// but the parsing contract is the same as the CLI and benches
// (rtc/common/flags.hpp): a malformed number is a usage error naming
// the argument — never a silent std::stoi truncation or an unhandled
// throw. An argument the library rejects (an unknown dataset, an
// output directory that cannot be written) ends the example the way it
// ends rtcomp: "error: <what>" and exit code 1 (run_example).
#pragma once

#include <climits>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "rtc/common/flags.hpp"

namespace rtc::examples {

/// argv[index] as an int, or `fallback` when absent. Exits 2 with a
/// message naming `what` on a malformed value.
inline int arg_int(int argc, char** argv, int index, const char* what,
                   int fallback) {
  if (index >= argc) return fallback;
  const std::string text = argv[index];
  const auto v = flags::parse_int(text);
  if (!v || *v < INT_MIN || *v > INT_MAX) {
    std::cerr << "bad value for " << what << ": '" << text
              << "' (expected an integer)\n";
    std::exit(2);
  }
  return static_cast<int>(*v);
}

/// argv[index] as a double, or `fallback` when absent. Exits 2 with a
/// message naming `what` on a malformed value.
inline double arg_double(int argc, char** argv, int index,
                         const char* what, double fallback) {
  if (index >= argc) return fallback;
  const std::string text = argv[index];
  const auto v = flags::parse_double(text);
  if (!v) {
    std::cerr << "bad value for " << what << ": '" << text
              << "' (expected a number)\n";
    std::exit(2);
  }
  return *v;
}

/// Runs an example's body; an exception escaping it prints
/// "error: <what>" and returns 1 instead of aborting the process.
inline int run_example(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace rtc::examples
