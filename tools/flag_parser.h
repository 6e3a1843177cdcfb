// Minimal --key=value / --switch command-line parser for the tcprx tools.
//
// Deliberately tiny: positional commands, long flags only, typed getters with
// defaults, unknown-flag detection. Header-only so the tools stay one file each.
// A numeric getter refuses a value that is not wholly a number: it prints a message
// and ends the tool with exit status 2, so `--nics=5x` never reads as 5. A duration
// getter refuses in the same way a count whose nanoseconds overflow 64 bits.

#ifndef TOOLS_FLAG_PARSER_H_
#define TOOLS_FLAG_PARSER_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/util/sim_time.h"

namespace tcprx {

class FlagParser {
 public:
  FlagParser(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const size_t eq = arg.find('=');
        if (eq == std::string::npos) {
          flags_[arg.substr(2)] = "true";
        } else {
          flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  bool GetBool(const std::string& name, bool default_value = false) {
    MarkUsed(name);
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return default_value;
    }
    return it->second != "false" && it->second != "0";
  }

  uint64_t GetUint(const std::string& name, uint64_t default_value) {
    return GetNumber(name, default_value, "a whole number");
  }

  double GetDouble(const std::string& name, double default_value) {
    return GetNumber(name, default_value, "a number");
  }

  // A count of `unit`s, e.g. GetDuration("measure-ms", 1000, SimDuration::FromMillis(1)).
  SimDuration GetDuration(const std::string& name, uint64_t default_count, SimDuration unit) {
    const uint64_t count = GetUint(name, default_count);
    const uint64_t max_count = std::numeric_limits<uint64_t>::max() / unit.nanos();
    if (count > max_count) {
      std::fprintf(stderr, "--%s must be at most %llu, not %llu\n", name.c_str(),
                   static_cast<unsigned long long>(max_count),
                   static_cast<unsigned long long>(count));
      std::exit(2);
    }
    return SimDuration::FromNanos(count * unit.nanos());
  }

  std::string GetString(const std::string& name, const std::string& default_value) {
    MarkUsed(name);
    auto it = flags_.find(name);
    return it == flags_.end() ? default_value : it->second;
  }

  // Flags given on the command line but never read by the tool.
  std::vector<std::string> UnusedFlags() const {
    std::vector<std::string> unused;
    for (const auto& [name, value] : flags_) {
      if (used_.count(name) == 0) {
        unused.push_back(name);
      }
    }
    return unused;
  }

 private:
  template <typename T>
  T GetNumber(const std::string& name, T default_value, const char* what) {
    MarkUsed(name);
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return default_value;
    }
    const std::string& text = it->second;
    T value{};
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size()) {
      std::fprintf(stderr, "--%s must be %s, not '%s'\n", name.c_str(), what, text.c_str());
      std::exit(2);
    }
    return value;
  }

  void MarkUsed(const std::string& name) { used_[name] = true; }

  std::map<std::string, std::string> flags_;
  std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

}  // namespace tcprx

#endif  // TOOLS_FLAG_PARSER_H_
