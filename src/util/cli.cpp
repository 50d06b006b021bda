#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace stc {

Cli::Cli(int argc, char** argv, const std::vector<std::string>& flags,
         const std::vector<std::string>& int_flags,
         const std::vector<std::string>& double_flags) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2), value;
    auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      value = argv[++i];
    }
    if (!std::count(flags.begin(), flags.end(), name) &&
        !std::count(int_flags.begin(), int_flags.end(), name) &&
        !std::count(double_flags.begin(), double_flags.end(), name))
      throw Error(ErrorCode::kInvalidInput, "unknown flag --" + name,
                  "flag=--" + name);
    options_[name] = value;
  }
  for (const std::string& name : int_flags) get_int(name, 0);  // checks it
  for (const std::string& name : double_flags) get_double(name, 0.0);
}

bool Cli::has(const std::string& name) const { return options_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

long Cli::get_int(const std::string& name, long fallback) const {
  auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE)
    throw Error(ErrorCode::kInvalidInput,
                "--" + name + " needs an integer, got '" + it->second + "'",
                "flag=--" + name + "; value=" + it->second);
  return v;
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v))
    throw Error(ErrorCode::kInvalidInput,
                "--" + name + " needs a finite number, got '" + it->second + "'",
                "flag=--" + name + "; value=" + it->second);
  return v;
}

std::optional<Cli> parse_cli(int argc, char** argv, const char* usage,
                             const std::vector<std::string>& flags,
                             const std::vector<std::string>& int_flags,
                             const std::vector<std::string>& double_flags) {
  try {
    return Cli(argc, argv, flags, int_flags, double_flags);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), usage);
    return std::nullopt;
  }
}

}  // namespace stc
