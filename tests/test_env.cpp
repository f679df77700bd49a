// Unit tests for environment-variable configuration.
#include "src/util/env.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

namespace {

using sda::util::env_flag;
using sda::util::env_int;
using sda::util::unknown_sda_env;

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name : {"SDA_TEST_X", "SDA_SIM_TIME", "SDA_REPS",
                             "SDA_WARMUP", "SDA_SEED", "SDA_FULL",
                             "SDA_THREDS", "SDA_BOGUS_KNOB"}) {
      unsetenv(name);
    }
  }
};

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

TEST_F(EnvTest, IntFallback) {
  EXPECT_EQ(env_int("SDA_TEST_X", 7), 7);
  setenv("SDA_TEST_X", "42", 1);
  EXPECT_EQ(env_int("SDA_TEST_X", 7), 42);
  setenv("SDA_TEST_X", "-3", 1);
  EXPECT_EQ(env_int("SDA_TEST_X", 7), -3);
}

TEST_F(EnvTest, Flags) {
  EXPECT_FALSE(env_flag("SDA_TEST_X"));
  for (const char* truthy : {"1", "true", "yes", "on"}) {
    setenv("SDA_TEST_X", truthy, 1);
    EXPECT_TRUE(env_flag("SDA_TEST_X")) << truthy;
  }
  setenv("SDA_TEST_X", "0", 1);
  EXPECT_FALSE(env_flag("SDA_TEST_X"));
}

// A likely typo (SDA_THREDS for SDA_THREADS) must be flagged, while every
// recognized knob and the SDA_TEST_ scratch prefix must not be.  Other tests
// or the surrounding shell may have their own SDA_* variables set, so the
// assertions are containment checks, not exact-set checks.
TEST_F(EnvTest, UnknownSdaEnvFlagsTyposOnly) {
  setenv("SDA_THREDS", "2", 1);
  setenv("SDA_BOGUS_KNOB", "x", 1);
  setenv("SDA_TEST_X", "scratch", 1);
  const auto unknown = unknown_sda_env();
  EXPECT_TRUE(contains(unknown, "SDA_THREDS"));
  EXPECT_TRUE(contains(unknown, "SDA_BOGUS_KNOB"));
  EXPECT_FALSE(contains(unknown, "SDA_TEST_X"));
}

// The process knobs stay known.  Set without overwriting, so a value the
// surrounding shell chose survives (this binary runs no simulation).
TEST_F(EnvTest, UnknownSdaEnvIgnoresRecognizedKnobs) {
  setenv("SDA_THREADS", "1", 0);
  setenv("SDA_VALIDATE", "0", 0);
  const auto unknown = unknown_sda_env();
  EXPECT_FALSE(contains(unknown, "SDA_THREADS"));
  EXPECT_FALSE(contains(unknown, "SDA_VALIDATE"));
  // Only SDA_* names are ever reported (PATH, HOME, ... are not ours).
  for (const std::string& name : unknown) {
    EXPECT_EQ(name.rfind("SDA_", 0), 0u) << name;
  }
}

// Run length is key=value now: the retired run-length variables count as
// unknown, so a leftover `SDA_FULL=1` warns instead of silently doing
// nothing.
TEST_F(EnvTest, RetiredRunLengthVariablesAreUnknown) {
  for (const char* name : {"SDA_SIM_TIME", "SDA_REPS", "SDA_WARMUP",
                           "SDA_SEED", "SDA_FULL"}) {
    setenv(name, "1", 1);
  }
  const auto unknown = unknown_sda_env();
  for (const char* name : {"SDA_SIM_TIME", "SDA_REPS", "SDA_WARMUP",
                           "SDA_SEED", "SDA_FULL"}) {
    EXPECT_TRUE(contains(unknown, name)) << name;
  }
}

}  // namespace
