// Minimal argument parsing for the cfs command-line tool: positional
// arguments plus --key=value / --flag options, with typed accessors and
// unknown-option detection.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace cfs::cli {

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string_view a = argv[i];
      if (a.rfind("--", 0) == 0) {
        const std::size_t eq = a.find('=');
        if (eq == std::string_view::npos) {
          opts_.emplace_back(std::string(a.substr(2)), "");
        } else {
          opts_.emplace_back(std::string(a.substr(2, eq - 2)),
                             std::string(a.substr(eq + 1)));
        }
      } else {
        positional_.emplace_back(a);
      }
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  bool has(std::string_view key) const {
    for (const auto& [k, v] : opts_) {
      if (k == key) return true;
    }
    return false;
  }

  std::string get(std::string_view key, std::string def = "") const {
    for (const auto& [k, v] : opts_) {
      if (k == key) return v;
    }
    return def;
  }

  std::uint64_t get_u64(std::string_view key, std::uint64_t def) const {
    const std::string v = get(key);
    if (v.empty()) return def;
    // stoull accepts a sign (and wraps "-1" to ULLONG_MAX) and leading
    // blanks; an unsigned option starts with a digit or is rejected.
    const auto bad = [&] {
      return Error("option --" + std::string(key) + " expects a number, got '" +
                   v + "'");
    };
    if (v[0] < '0' || v[0] > '9') throw bad();
    try {
      return std::stoull(v);
    } catch (...) {
      throw bad();
    }
  }

  /// Throw on options outside the allowed set (typo protection).
  void allow_only(std::initializer_list<std::string_view> keys) const {
    for (const auto& [k, v] : opts_) {
      bool ok = false;
      for (std::string_view key : keys) ok |= k == key;
      if (!ok) throw Error("unknown option --" + k);
    }
  }

 private:
  std::vector<std::string> positional_;
  std::vector<std::pair<std::string, std::string>> opts_;
};

}  // namespace cfs::cli
