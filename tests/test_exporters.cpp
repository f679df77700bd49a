// Telemetry exporters: the Chrome trace_event document and the versioned
// JSON-lines records must parse as strict JSON, carry their schema markers,
// and — the core contract — leave determinism fingerprints untouched.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/config.hpp"
#include "src/exp/json_export.hpp"
#include "src/exp/runner.hpp"
#include "src/metrics/json_writer.hpp"
#include "src/metrics/trace_export.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace sda;

// --- a minimal validating JSON checker -------------------------------------
// Recursive-descent skip-parser over RFC 8259: returns normally iff the
// whole text is one valid JSON value (no DOM is built — the tests only
// assert well-formedness plus a few substring probes).
class JsonChecker {
 public:
  static bool valid(const std::string& text) {
    JsonChecker c(text);
    if (!c.value()) return false;
    c.ws();
    return c.pos_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& t) : text_(t) {}

  void ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_++]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    // Defer exactness to strtod: rejects "1.2.3", "-", "1e".
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    std::strtod(tok.c_str(), &end);
    return end == tok.c_str() + tok.size();
  }
  bool value() {
    ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      ws();
      if (!string()) return false;
      if (!eat(':')) return false;
      if (!value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(JsonChecker::valid(R"({"a":[1,2.5,-3e2,"x\n",true,null],"b":{}})"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a":1,})"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a" 1})"));
  EXPECT_FALSE(JsonChecker::valid(R"([1 2])"));
  EXPECT_FALSE(JsonChecker::valid(R"("unterminated)"));
  EXPECT_FALSE(JsonChecker::valid("{}extra"));
  EXPECT_FALSE(JsonChecker::valid("1.2.3"));
}

TEST(JsonWriter, EscapesAndNesting) {
  std::string out;
  metrics::JsonWriter w(out);
  w.begin_object();
  w.kv("s", "a\"b\\c\nd\x01");
  w.key("arr").begin_array().value(1).value(false).value(2.5).end_array();
  w.key("nested").begin_object().end_object();
  w.end_object();
  EXPECT_TRUE(JsonChecker::valid(out)) << out;
  EXPECT_NE(out.find("\\u0001"), std::string::npos);
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  std::string out;
  metrics::JsonWriter w(out);
  w.begin_array().value(1.0 / 0.0).value(0.0 / 0.0).end_array();
  EXPECT_EQ(out, "[null,null]");
}

// --- JsonWriter byte pins ---------------------------------------------------
// Literal expected output: every byte the writer produces is part of the
// wire format (sda.admit.v1 replies, sda.run.v1 lines), so these must not
// move when the writer's internals do.

/// Renders one document through a JsonWriter into a string.
template <typename Body>
std::string json_of(Body body) {
  std::string out;
  metrics::JsonWriter w(out);
  body(w);
  return out;
}

/// Every control character U+0000..U+001F, then quote and backslash.
std::string control_and_specials() {
  std::string s;
  for (int c = 0; c < 0x20; ++c) s.push_back(static_cast<char>(c));
  s += "\"\\";
  return s;
}

constexpr const char* kEscapedControlAndSpecials =
    R"(\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b\f\r)"
    R"(\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017)"
    R"(\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f\"\\)";

TEST(JsonWriter, EscapesEveryControlCharacterInValues) {
  const std::string out = json_of([](metrics::JsonWriter& w) {
    w.begin_object().kv("v", control_and_specials()).end_object();
  });
  EXPECT_EQ(out, std::string(R"({"v":")") + kEscapedControlAndSpecials +
                     R"("})");
  EXPECT_TRUE(JsonChecker::valid(out)) << out;
}

TEST(JsonWriter, EscapesEveryControlCharacterInKeys) {
  const std::string out = json_of([](metrics::JsonWriter& w) {
    w.begin_object().kv(control_and_specials(), 1).end_object();
  });
  EXPECT_EQ(out, std::string(R"({")") + kEscapedControlAndSpecials +
                     R"(":1})");
  EXPECT_TRUE(JsonChecker::valid(out)) << out;
}

TEST(JsonWriter, PassesPrintableAndHighBytesThrough) {
  const std::string out = json_of([](metrics::JsonWriter& w) {
    w.begin_array()
        .value("a/b 'c' \x7f \xc3\xa9")
        .value(std::string("plain"))
        .value("")
        .end_array();
  });
  EXPECT_EQ(out, "[\"a/b 'c' \x7f \xc3\xa9\",\"plain\",\"\"]");
}

TEST(JsonWriter, NonFiniteDoublesRenderAsNullEverywhere) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::string out = json_of([&](metrics::JsonWriter& w) {
    w.begin_object().kv("nan", nan).kv("pinf", inf).kv("ninf", -inf);
    w.key("arr").begin_array().value(nan).value(inf).value(-inf).end_array();
    w.end_object();
  });
  EXPECT_EQ(out,
            R"({"nan":null,"pinf":null,"ninf":null,"arr":[null,null,null]})");
}

TEST(JsonWriter, IntegerExtremesAndShortestDoubles) {
  const std::string out = json_of([](metrics::JsonWriter& w) {
    w.begin_array()
        .value(std::numeric_limits<std::int64_t>::min())
        .value(std::numeric_limits<std::int64_t>::max())
        .value(std::numeric_limits<std::uint64_t>::max())
        .value(std::uint64_t{0})
        .value(-1)
        .value(0.1)
        .value(2.5)
        .value(-0.0)
        .value(1e300)
        .value(0.1 + 0.2)
        .value(true)
        .value(false)
        .end_array();
  });
  EXPECT_EQ(out,
            "[-9223372036854775808,9223372036854775807,"
            "18446744073709551615,0,-1,0.1,2.5,-0,1e+300,"
            "0.30000000000000004,true,false]");
}

TEST(JsonWriter, CommasInNestedObjectsAndArrays) {
  const std::string out = json_of([](metrics::JsonWriter& w) {
    w.begin_object();
    w.key("a").begin_array();
    w.value(1);
    w.begin_object().key("b").begin_array().end_array().end_object();
    w.begin_array().value(2).value(3).end_array();
    w.begin_array().end_array();
    w.end_array();
    w.key("c").begin_object();
    w.key("d").begin_object().end_object();
    w.kv("e", "f");
    w.end_object();
    w.kv("g", true);
    w.end_object();
  });
  EXPECT_EQ(out, R"({"a":[1,{"b":[]},[2,3],[]],"c":{"d":{},"e":"f"},"g":true})");
}

TEST(JsonWriter, TopLevelArrayOfObjects) {
  const std::string out = json_of([](metrics::JsonWriter& w) {
    w.begin_array();
    for (int i = 0; i < 3; ++i) {
      w.begin_object().kv("i", i).kv("s", "x").end_object();
    }
    w.end_array();
  });
  EXPECT_EQ(out, R"([{"i":0,"s":"x"},{"i":1,"s":"x"},{"i":2,"s":"x"}])");
}

// --- fixtures ---------------------------------------------------------------

exp::ExperimentConfig small_config() {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 2000.0;
  c.replications = 2;
  return c;
}

int count_occurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// --- Chrome trace -----------------------------------------------------------

TEST(ChromeTrace, ParsesWithOneTrackPerNode) {
  const exp::ExperimentConfig c = small_config();
  metrics::Tracer tracer;  // unbounded
  (void)exp::run_once(c, 42, &tracer);
  ASSERT_GT(tracer.total(), 0u);

  std::ostringstream os;
  metrics::write_chrome_trace(tracer, c.k, os);
  const std::string doc = os.str();

  EXPECT_TRUE(JsonChecker::valid(doc));
  // One thread_name metadata record per node plus the global-run track.
  EXPECT_EQ(count_occurrences(doc, "\"thread_name\""), c.k + 1);
  for (int n = 0; n < c.k; ++n) {
    EXPECT_NE(doc.find("\"node " + std::to_string(n) + "\""),
              std::string::npos);
  }
  EXPECT_NE(doc.find("\"global runs\""), std::string::npos);
  // Service slices and flow arrows are present.
  EXPECT_GT(count_occurrences(doc, "\"ph\":\"X\""), 0);
  EXPECT_GT(count_occurrences(doc, "\"ph\":\"s\""), 0);
  EXPECT_GT(count_occurrences(doc, "\"ph\":\"f\""), 0);
}

TEST(ChromeTrace, EmptyTracerStillValid) {
  metrics::Tracer tracer;
  std::ostringstream os;
  metrics::write_chrome_trace(tracer, 3, os);
  EXPECT_TRUE(JsonChecker::valid(os.str()));
  EXPECT_EQ(count_occurrences(os.str(), "\"thread_name\""), 4);
}

// --- JSON-lines records ------------------------------------------------------

TEST(JsonLines, RunRecordSchema) {
  exp::ExperimentConfig c = small_config();
  c.distributions = true;
  const std::uint64_t seed = exp::replication_seed(c.seed, 0);
  metrics::Tracer tracer(1);
  const exp::RunResult r = exp::run_once(c, seed, &tracer);

  std::ostringstream os;
  exp::write_run_json_line(c, 0, seed, tracer.fingerprint(), r, os);
  const std::string line = os.str();
  ASSERT_EQ(line.back(), '\n');
  EXPECT_TRUE(JsonChecker::valid(line.substr(0, line.size() - 1))) << line;
  EXPECT_NE(line.find("\"schema\":\"sda.run.v1\""), std::string::npos);
  EXPECT_NE(line.find("\"fingerprint\":\"0x"), std::string::npos);
  EXPECT_NE(line.find("\"classes\":["), std::string::npos);
  EXPECT_NE(line.find("\"nodes\":["), std::string::npos);
  EXPECT_NE(line.find("\"distributions\":{"), std::string::npos);
  EXPECT_NE(line.find("\"p999\":"), std::string::npos);
  EXPECT_EQ(count_occurrences(line, "\"busy_time\":"), c.k);
}

TEST(JsonLines, ReportRecordSchemaAndConfigRoundTrip) {
  const exp::ExperimentConfig c = small_config();
  std::vector<std::uint64_t> fps;
  const metrics::Report report =
      exp::run_experiment(c, util::ThreadPool::shared(), &fps);

  std::ostringstream os;
  exp::write_report_json_line(c, report, fps, nullptr, os);
  const std::string line = os.str();
  EXPECT_TRUE(JsonChecker::valid(line.substr(0, line.size() - 1))) << line;
  EXPECT_NE(line.find("\"schema\":\"sda.report.v1\""), std::string::npos);
  EXPECT_EQ(count_occurrences(line, "\"fingerprint"), 1);  // "fingerprints"
  EXPECT_EQ(count_occurrences(line, "\"0x"), 2);  // one per replication

  // The embedded config block carries every known key, in order — a reader
  // can reconstruct the exact ExperimentConfig from the line.
  for (const auto& [key, value] : c.to_kv()) {
    const std::string pair =
        "\"" + key + "\":\"" + metrics::json_escape(value) + "\"";
    EXPECT_NE(line.find(pair), std::string::npos) << pair;
  }
}

// --- the zero-impact contract ------------------------------------------------

TEST(Exporters, FingerprintIdenticalWithAndWithoutExporters) {
  const exp::ExperimentConfig plain = small_config();

  // Library path: capacity-1 tracers, no exporters.
  std::vector<std::uint64_t> library_fps;
  (void)exp::run_experiment(plain, util::ThreadPool::shared(), &library_fps);
  ASSERT_EQ(library_fps.size(), 2u);

  // Exporter path: unbounded tracer, distributions on, every exporter
  // exercised.  Same seeds => the fingerprints must match exactly.
  exp::ExperimentConfig instrumented = small_config();
  instrumented.distributions = true;
  for (int rep = 0; rep < instrumented.replications; ++rep) {
    const std::uint64_t seed = exp::replication_seed(instrumented.seed, rep);
    metrics::Tracer tracer;  // unbounded: keeps all records for the export
    const exp::RunResult r = exp::run_once(instrumented, seed, &tracer);
    std::ostringstream trace_os, json_os;
    metrics::write_chrome_trace(tracer, instrumented.k, trace_os);
    exp::write_run_json_line(instrumented, rep, seed, tracer.fingerprint(), r,
                             json_os);
    EXPECT_EQ(tracer.fingerprint(), library_fps[static_cast<std::size_t>(rep)])
        << "rep " << rep;
  }
}

TEST(Exporters, ExportIsAPureFunctionOfTheRun) {
  const exp::ExperimentConfig c = small_config();
  metrics::Tracer tracer;
  const exp::RunResult r = exp::run_once(c, 7, &tracer);
  std::ostringstream a, b;
  metrics::write_chrome_trace(tracer, c.k, a);
  metrics::write_chrome_trace(tracer, c.k, b);
  EXPECT_EQ(a.str(), b.str());
  std::ostringstream ja, jb;
  exp::write_run_json_line(c, 0, 7, tracer.fingerprint(), r, ja);
  exp::write_run_json_line(c, 0, 7, tracer.fingerprint(), r, jb);
  EXPECT_EQ(ja.str(), jb.str());
}

}  // namespace
