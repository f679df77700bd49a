// Process-level environment knobs.
//
// Run length is not an environment setting: it is the ExperimentConfig
// fields sim_time, replications, warmup_fraction and seed, which every
// binary takes as key=value arguments (`fig07_gf sim_time=1000000
// replications=2` is the paper's run length).  What stays in the
// environment are knobs that belong to the process, not to a config:
//
//   SDA_THREADS   worker parallelism for replication/sweep fan-out
//                 (default: hardware_concurrency; 1 = strictly sequential —
//                 read by util::ThreadPool)
//   SDA_VALIDATE=1  run-time invariant oracle: containment/monotonicity
//                 checks on every SDA assignment plus structural self-checks
//                 of the event queue and ready heaps; violations abort with
//                 a dump (read by core::invariants)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sda::util {

/// Reads an integer env var; returns @p fallback when unset or unparsable.
std::int64_t env_int(const char* name, std::int64_t fallback) noexcept;

/// True when the env var is set to a truthy value ("1", "true", "yes", "on").
bool env_flag(const char* name) noexcept;

/// Names of set environment variables that start with "SDA_" but are not
/// recognized knobs.  Variables prefixed "SDA_TEST_" are exempt (reserved
/// for the test suite's own scratch variables).
std::vector<std::string> unknown_sda_env();

/// Prints one stderr warning per unknown SDA_* variable.  At most once per
/// process, so callers may invoke it from every entry point.
void warn_unknown_sda_env() noexcept;

/// Case-insensitive Damerau-Levenshtein distance between two short names
/// (insert/delete/substitute/transpose, all cost 1).
std::size_t edit_distance(const std::string& a, const std::string& b);

/// The candidate closest to @p name when it is close enough to be a likely
/// typo (distance <= max(1, name.size()/3)); empty string otherwise.
/// Shared by the SDA_* env warning and ExperimentConfig::set's unknown-key
/// diagnostics.
std::string closest_match(const std::string& name,
                          const std::vector<std::string>& candidates);

}  // namespace sda::util
