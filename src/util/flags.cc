#include "util/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace contender {

namespace {

/// Exits with status 2 (bad usage), naming the flag and its value.
[[noreturn]] void RejectFlag(const std::string& name, const std::string& value,
                             const char* expected) {
  std::fprintf(stderr, "invalid value '%s' for flag --%s: expected %s\n",
               value.c_str(), name.c_str(), expected);
  std::exit(2);
}

/// strtoll/strtod accept leading whitespace, trailing garbage and
/// saturate on overflow; a flag value must be the whole number and fit.
bool WholeAndInRange(const std::string& value, const char* end) {
  return !value.empty() && std::isspace(static_cast<unsigned char>(
                               value.front())) == 0 &&
         end == value.c_str() + value.size() && errno != ERANGE;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) continue;
    arg.remove_prefix(2);
    auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      values_[std::string(arg)] = argv[++i];
    } else if (arg.rfind("no-", 0) == 0) {
      values_[std::string(arg.substr(3))] = "false";
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& value = it->second;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (!WholeAndInRange(value, end)) {
    RejectFlag(name, value, "a 64-bit integer");
  }
  return parsed;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& value = it->second;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (!WholeAndInRange(value, end) || !std::isfinite(parsed)) {
    RejectFlag(name, value, "a finite number");
  }
  return parsed;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second != "false" && it->second != "0";
}

}  // namespace contender
