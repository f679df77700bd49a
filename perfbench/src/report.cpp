#include "src/report.hpp"

#include <charconv>
#include <cmath>
#include <ostream>

namespace perfbench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples,
                 const std::string& detail) {
  check(valid_metric_name(name), "metric name '" + name + "' is legal");
  check(std::isfinite(value), "metric " + name + " is finite");
  metrics_.push_back(Metric{name, value, unit, samples, detail});
}

void Report::log_timing(const std::string& what, const std::string& unit,
                        const Summary& s) {
  std::string line = what + ": n=" + std::to_string(s.n) +
                     " p50=" + json_number(s.median) + " " + unit;
  if (s.tail_pct > 0.0) {
    line += " p" + json_number(s.tail_pct) + "=" + json_number(s.tail) + " " +
            unit + " (highest percentile with >=10 samples beyond)";
  }
  notes_.push_back(line);
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

void Report::fail(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  failures_.push_back(why + " (" + std::to_string(n) + ")");
}

void Report::print(std::ostream& out, const std::string& workload,
                   std::uint64_t seed, bool trace) const {
  const HostShape h = host_shape();
  out << "perfbench workload=" << workload << " seed=" << seed
      << " trace=" << (trace ? 1 : 0) << "\n";
  for (const std::string& n : notes_) out << "  " << n << "\n";
  for (const Metric& m : metrics_) {
    out << "  metric " << m.name << " = " << json_number(m.value) << " "
        << m.unit << "  [n=" << m.samples << "]";
    if (!m.detail.empty()) out << "  " << m.detail;
    out << "\n";
  }
  out << "  checks: " << checks_ << " run, " << failures_.size()
      << " failed\n";
  for (const std::string& f : failures_) out << "  FAILED: " << f << "\n";
  // Host-shape stamp: compare.py refuses to compare results whose stamps
  // differ.
  out << "{\"perfbench_host\": {\"nproc\": " << h.nproc
      << ", \"cpu_model\": " << json_string(h.cpu_model)
      << ", \"compiler\": " << json_string(h.compiler)
      << ", \"build_type\": " << json_string(h.build_type)
      << "}, \"workload\": " << json_string(workload)
      << ", \"seed\": " << seed << ", \"trace\": " << (trace ? 1 : 0)
      << ", \"samples\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics_[i].name) << ": "
        << metrics_[i].samples;
  }
  out << "}}\n";

  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << (attempted_ == 0 ? 1 : attempted_)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << json_string(m.name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}}\n";
}

}  // namespace perfbench
