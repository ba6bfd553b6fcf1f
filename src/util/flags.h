// Tiny command-line flag parser for bench and example binaries.
//
// Supports "--name=value" and "--name value" syntax plus boolean
// "--name" / "--no-name". Usage errors exit the binary with status 2 and a
// message naming the flag:
//   - a value the lookup cannot take whole: a numeric value that is not a
//     whole in-range number (empty, "abc", "12x", overflow), a boolean
//     other than true/false/1/0, and a negative --seed;
//   - a flag no lookup asks for (a misspelt "--sed=7"), reported by
//     RejectUnknown, which a binary calls once it has made every lookup.

#ifndef CONTENDER_UTIL_FLAGS_H_
#define CONTENDER_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace contender {

/// Parses argv into a name->value map and serves typed lookups with
/// defaults. Every lookup records the name it asks for.
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

  /// Exits with status 2, naming a flag on the command line that no lookup
  /// has asked for. Call it after every lookup the binary makes, so make
  /// lookups that only some paths use before calling it.
  void RejectUnknown() const;

 private:
  /// Returns the flag's value, or nullptr when it was not given; records
  /// `name` as known either way.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> known_;
};

}  // namespace contender

#endif  // CONTENDER_UTIL_FLAGS_H_
