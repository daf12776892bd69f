// Minimal key=value configuration parsing for the CLI tools.
//
// Accepts "key=value" tokens (command-line args or file lines; '#' starts
// a comment).  Typed getters with defaults; byte sizes accept K/M/G
// suffixes (binary).  Every getter records the key it read, so a tool can
// reject the keys nothing read (a typo, or a knob that no longer exists)
// instead of silently running without them.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace nvm {

class Config {
 public:
  Config() = default;

  // Parse "key=value" tokens; unknown formats are rejected.
  static StatusOr<Config> FromArgs(const std::vector<std::string>& args);
  // Parse a file of "key=value" lines ('#' comments, blank lines ok).
  static StatusOr<Config> FromFile(const std::string& path);

  bool Has(const std::string& key) const { return values_.contains(key); }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  int64_t GetInt(const std::string& key, int64_t fallback = 0) const;
  double GetDouble(const std::string& key, double fallback = 0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;
  // "64K", "2M", "1G" (binary multiples) or plain byte counts.
  uint64_t GetBytes(const std::string& key, uint64_t fallback = 0) const;

  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

  const std::map<std::string, std::string>& values() const { return values_; }

  // Keys set but never read through a getter (Has() does not count), in
  // key order.
  std::vector<std::string> UnreadKeys() const;

 private:
  // Looks `key` up and records it as read.
  const std::string* Find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace nvm
