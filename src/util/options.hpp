#pragma once
// Minimal command-line option parser for examples and benches.
// Supports `--key value` and `--key=value`; unknown keys are collected so
// callers can reject or ignore them.

#include <initializer_list>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace simas {

class Options {
 public:
  Options() = default;
  Options(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def = {}) const;
  long long get_int(const std::string& key, long long def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;
  /// Comma-separated integers (`--ranks=2,8`).
  std::vector<int> get_int_list(const std::string& key,
                                std::vector<int> def) const;

  /// False, after naming each offender on `err`, when any key is not in
  /// `known` or any positional argument was given.
  bool only(std::initializer_list<const char*> known,
            std::ostream& err) const;

  /// Positional (non --key) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace simas
