#include "src/util/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

extern "C" char** environ;

namespace sda::util {

namespace {
/// Every SDA_* variable a binary in this repo reads.  Keep in sync with the
/// header comment above and docs/EXPERIMENTS.md.
constexpr const char* kKnownSdaVars[] = {"SDA_THREADS", "SDA_VALIDATE"};
}  // namespace

std::int64_t env_int(const char* name, std::int64_t fallback) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  return (end != nullptr && end != v) ? parsed : fallback;
}

bool env_flag(const char* name) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "yes") == 0 || std::strcmp(v, "on") == 0;
}

std::vector<std::string> unknown_sda_env() {
  std::vector<std::string> out;
  if (environ == nullptr) return out;
  for (char** p = environ; *p != nullptr; ++p) {
    const char* entry = *p;
    if (std::strncmp(entry, "SDA_", 4) != 0) continue;
    const char* eq = std::strchr(entry, '=');
    const std::string name =
        eq != nullptr ? std::string(entry, eq) : std::string(entry);
    if (name.rfind("SDA_TEST_", 0) == 0) continue;
    bool known = false;
    for (const char* k : kKnownSdaVars) {
      if (name == k) {
        known = true;
        break;
      }
    }
    if (!known) out.push_back(name);
  }
  return out;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  auto low = [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  };
  const std::size_t n = a.size(), m = b.size();
  // Three rolling rows are enough for the transposition lookback.
  std::vector<std::size_t> prev2(m + 1), prev(m + 1), cur(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= m; ++j) {
      const bool eq = low(a[i - 1]) == low(b[j - 1]);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (eq ? 0 : 1)});
      if (i > 1 && j > 1 && low(a[i - 1]) == low(b[j - 2]) &&
          low(a[i - 2]) == low(b[j - 1])) {
        cur[j] = std::min(cur[j], prev2[j - 2] + 1);
      }
    }
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  return prev[m];
}

std::string closest_match(const std::string& name,
                          const std::vector<std::string>& candidates) {
  const std::size_t budget = std::max<std::size_t>(1, name.size() / 3);
  std::string best;
  std::size_t best_d = budget + 1;
  for (const std::string& c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best_d <= budget ? best : std::string();
}

void warn_unknown_sda_env() noexcept {
  static bool warned = false;
  if (warned) return;
  warned = true;
  try {
    const std::vector<std::string> known(std::begin(kKnownSdaVars),
                                         std::end(kKnownSdaVars));
    for (const std::string& name : unknown_sda_env()) {
      const std::string suggestion = closest_match(name, known);
      std::fprintf(stderr,
                   "WARNING: unknown environment variable %s (known knobs: "
                   "SDA_THREADS SDA_VALIDATE; run length is key=value: "
                   "sim_time= replications= warmup_fraction= seed=)%s%s — "
                   "ignored\n",
                   name.c_str(),
                   suggestion.empty() ? "" : "; did you mean ",
                   suggestion.c_str());
    }
  } catch (...) {
    // Allocation failure while warning must not break the bench itself.
  }
}

}  // namespace sda::util
