#include "util/cli.h"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <stdexcept>

namespace gm::util {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is another flag or absent.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

[[noreturn]] void bad_number(const std::string& name, const std::string& value,
                             const char* kind) {
  throw std::invalid_argument("--" + name + ": expected " + kind + ", got '" +
                              value + "'");
}

}  // namespace

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  std::int64_t out = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (v.empty() || ec != std::errc() || end != v.data() + v.size()) {
    bad_number(name, v, "an integer");
  }
  return out;
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  double out = 0.0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (v.empty() || ec != std::errc() || end != v.data() + v.size()) {
    bad_number(name, v, "a number");
  }
  return out;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

void Cli::describe(const std::string& name, const std::string& help) {
  docs_.emplace_back(name, help);
}

bool Cli::handle_help(const std::string& program_summary) const {
  if (!has("help")) return false;
  std::cout << program_summary << "\n\nFlags:\n";
  for (const auto& [name, help] : docs_) {
    std::cout << "  --" << name << "\n      " << help << "\n";
  }
  return true;
}

std::vector<std::string> Cli::unknown_flags() const {
  std::vector<std::string> names;
  for (const auto& [k, v] : flags_) {
    const bool described =
        k == "help" || std::any_of(docs_.begin(), docs_.end(),
                                   [&k](const auto& d) { return d.first == k; });
    if (!described) names.push_back(k);
  }
  return names;
}

}  // namespace gm::util
