// Generic named-factory registry — the backend-registration pattern shared
// by the strategy registries (core/strategy.cpp) and the timer-queue
// backends (sim/timer_queue.cpp).
//
// One registry maps case-insensitive names to factories.  Two match modes:
// exact entries ("ud", "heap") and prefix families ("div-", "gf-") whose
// suffix carries a parameter.  Lookup tries exact entries first, then
// prefix families, both in registration order; unknown names raise
// std::invalid_argument listing every registered spelling plus a
// Damerau-Levenshtein did-you-mean suggestion (util::closest_match).
// Duplicate names — compared after lowercasing — are rejected at add().
//
// The template lives in util (not core) because the layering DAG enforced
// by sda_analyze forbids sim -> core includes, and the timer-queue registry
// is a sim-layer client.
#pragma once

#include <algorithm>
#include <cctype>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/util/env.hpp"
#include "src/util/unique_fn.hpp"

namespace sda::util {

/// How a registered name matches lookups.
enum class NameMatch {
  kExact,   ///< case-insensitive whole-name equality
  kPrefix,  ///< name is a prefix; the rest is the entry's parameter
};

template <typename Product>
class Registry {
 public:
  /// Factory callback: receives the full lowercased name that matched (for
  /// parameterized families the suffix carries the parameter).  Returns
  /// nullptr to signal "name matched my prefix but the parameter does not
  /// parse" — lookup then reports an unknown name.
  using Factory = UniqueFn<std::unique_ptr<Product>(const std::string&)>;

  /// @p problem names the registry in error messages ("PSP",
  /// "timer-queue"); @p noun is the kind of thing registered ("strategy",
  /// "backend").
  Registry(std::string problem, std::string noun)
      : problem_(std::move(problem)), noun_(std::move(noun)) {}

  /// Registers @p factory under @p name.  @p display is what names() shows
  /// (e.g. "div-<x>"; defaults to the lowercased name).  Throws
  /// std::invalid_argument when the name is empty or already registered.
  void add(const std::string& name, Factory factory, NameMatch match,
           const std::string& display) {
    const std::string key = lower(name);
    if (key.empty()) {
      throw std::invalid_argument(problem_ + " registry: empty " + noun_ +
                                  " name");
    }
    for (const Entry& e : entries_) {
      if (e.key == key) {
        throw std::invalid_argument(problem_ + " " + noun_ + " '" + name +
                                    "' is already registered");
      }
    }
    entries_.push_back(Entry{key, display.empty() ? key : display, match,
                             std::move(factory)});
  }

  // Non-const: UniqueFn's call operator is non-const (it may own mutable
  // state), so lookups need mutable access to the stored factories.
  std::unique_ptr<Product> make(const std::string& name) {
    const std::string n = lower(name);
    for (Entry& e : entries_) {
      if (e.match == NameMatch::kExact && e.key == n) {
        if (auto made = e.factory(n)) return made;
      }
    }
    for (Entry& e : entries_) {
      if (e.match == NameMatch::kPrefix && n.rfind(e.key, 0) == 0 &&
          n.size() > e.key.size()) {
        if (auto made = e.factory(n)) return made;
      }
    }
    std::ostringstream os;
    os << "unknown " << problem_ << ' ' << noun_ << ": " << name
       << " (registered:";
    for (const Entry& e : entries_) os << ' ' << e.display;
    os << ')';
    std::vector<std::string> exact_names;
    for (const Entry& e : entries_) {
      if (e.match == NameMatch::kExact) exact_names.push_back(e.key);
    }
    const std::string suggestion = closest_match(n, exact_names);
    if (!suggestion.empty()) os << " — did you mean '" << suggestion << "'?";
    throw std::invalid_argument(os.str());
  }

  /// Display names in registration order (built-ins first).
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.display);
    return out;
  }

 private:
  static std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    return s;
  }

  struct Entry {
    std::string key;      ///< lowercased name or prefix
    std::string display;  ///< what names() shows
    NameMatch match;
    Factory factory;
  };
  std::string problem_;
  std::string noun_;
  std::vector<Entry> entries_;
};

}  // namespace sda::util
