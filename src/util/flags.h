// Tiny command-line flag parser for bench and example binaries.
//
// Supports "--name=value" and "--name value" syntax plus boolean
// "--name" / "--no-name". Flags nobody looks up are ignored silently. A
// value the lookup cannot take whole is a usage error: the binary exits
// with status 2 and a message naming the flag. That covers a numeric value
// that is not a whole in-range number (empty, "abc", "12x", overflow), a
// boolean other than true/false/1/0, and a negative --seed.

#ifndef CONTENDER_UTIL_FLAGS_H_
#define CONTENDER_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

namespace contender {

/// Parses argv into a name->value map and serves typed lookups with defaults.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Common seed flag: --seed=N, N >= 0 (default 42).
  uint64_t Seed() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace contender

#endif  // CONTENDER_UTIL_FLAGS_H_
