// Command-line flag parsing shared by the neutraj tools.
//
//   tool [subcommand] --key value --boolean-flag ...
//
// A flag followed by a token that does not start with "--" takes it as its
// value; otherwise it is a boolean flag with value "1".

#ifndef NEUTRAJ_TOOLS_FLAGS_H_
#define NEUTRAJ_TOOLS_FLAGS_H_

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

namespace neutraj::tools {

struct Args {
  std::string command;  ///< The subcommand; empty for a tool without one.
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? def : it->second;
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = flags.find(key);
    return it == flags.end() ? def : std::stod(it->second);
  }
  int64_t GetInt(const std::string& key, int64_t def) const {
    auto it = flags.find(key);
    return it == flags.end() ? def : std::stoll(it->second);
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }

  /// Requires a flag to be present; throws with a usage hint otherwise.
  std::string Require(const std::string& key) const {
    auto it = flags.find(key);
    if (it == flags.end()) {
      throw std::runtime_error("missing required flag --" + key);
    }
    return it->second;
  }
};

/// Parses argv. With `has_subcommand`, argv[1] is the subcommand (throws when
/// it is missing) and flags start at argv[2]; otherwise they start at argv[1].
/// Throws std::runtime_error on a token that is neither a flag nor a value.
inline Args ParseArgs(int argc, char** argv, bool has_subcommand) {
  Args args;
  int first = 1;
  if (has_subcommand) {
    if (argc < 2) throw std::runtime_error("no subcommand given");
    args.command = argv[1];
    first = 2;
  }
  for (int i = first; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected argument: " + token);
    }
    token = token.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      // Assign through a named std::string: the const char* overload of
      // operator= trips a GCC 12 -Wrestrict false positive (PR 105329)
      // when inlined at -O3.
      const std::string value = argv[++i];
      args.flags[token] = value;
    } else {
      args.flags[token] = std::string("1");  // Boolean flag.
    }
  }
  return args;
}

}  // namespace neutraj::tools

#endif  // NEUTRAJ_TOOLS_FLAGS_H_
