// Minimal command-line flag parser used by examples and bench binaries.
//
// Syntax: --name value | --name=value | --flag (boolean). A binary that
// describe()s every flag it reads rejects the rest (unknown_flags), and a
// numeric flag whose value does not parse throws, so typos in experiment
// scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace gm::util {

/// Outside input a binary cannot use: an empty FASTA, an unknown format
/// name, an output file that will not open. The binaries exit 2 on it and
/// 1 on any other error.
class InputError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Cli {
 public:
  Cli(int argc, char** argv);

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const { return flags_.count(name) != 0; }

  std::string get(const std::string& name, const std::string& fallback) const;
  /// Throw std::invalid_argument naming the flag when the value is not a
  /// number or has trailing characters.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Registers documentation for --help output.
  void describe(const std::string& name, const std::string& help);

  /// True when --help was passed; prints usage to stdout.
  bool handle_help(const std::string& program_summary) const;

  /// Flags that were passed but never describe()d (--help is always
  /// known), in name order.
  std::vector<std::string> unknown_flags() const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::vector<std::pair<std::string, std::string>> docs_;
};

}  // namespace gm::util
