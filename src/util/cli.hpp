#pragma once
// Minimal command-line option parsing for the example binaries and benches.
// Supports `--flag`, `--key value` and `--key=value`; positional arguments
// are collected in order. An undeclared flag, a non-integer value of an
// integer flag or a non-finite value of a floating-point flag is an
// Error(kInvalidInput): a typo fails loudly.

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace stc {

class Cli {
 public:
  /// Accepts `--name` for names in `flags`, `int_flags` or `double_flags`;
  /// the values of `int_flags` must be base-10 integers, those of
  /// `double_flags` finite numbers (see get_double).
  Cli(int argc, char** argv, const std::vector<std::string>& flags,
      const std::vector<std::string>& int_flags = {},
      const std::vector<std::string>& double_flags = {});

  /// True if `--name` was present (with or without a value).
  bool has(const std::string& name) const;

  /// Value of `--name`, or `fallback` when absent.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Integer value of `--name`, or `fallback` when absent or empty; throws
  /// Error(kInvalidInput) on a non-integer value.
  long get_int(const std::string& name, long fallback) const;

  /// Floating-point value of `--name` ("1.5", "1e6"), or `fallback` when
  /// absent; throws Error(kInvalidInput) unless the whole value is one
  /// finite number (so "", "abc", "1e2x", "nan" and "inf" are rejected).
  double get_double(const std::string& name, double fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::unordered_map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Cli for a driver: on an error prints it and `usage` to stderr and
/// returns nothing (the driver then exits 2).
std::optional<Cli> parse_cli(int argc, char** argv, const char* usage,
                             const std::vector<std::string>& flags,
                             const std::vector<std::string>& int_flags = {},
                             const std::vector<std::string>& double_flags = {});

}  // namespace stc
