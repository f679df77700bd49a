#include "src/metrics/trace_export.hpp"

#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>

#include "src/metrics/json_writer.hpp"

namespace sda::metrics {

namespace {

/// Sim time -> trace_event ts (microseconds; 1 sim unit renders as 1 ms).
double to_us(double t) { return t * 1000.0; }

/// Emits the shared header fields of one traceEvents entry.
void event_head(JsonWriter& w, const char* ph, double time, int tid) {
  w.begin_object();
  w.kv("ph", ph);
  w.kv("ts", to_us(time));
  w.kv("pid", 1);
  w.kv("tid", tid);
}

void task_args(JsonWriter& w, const TraceRecord& rec) {
  w.key("args").begin_object();
  w.kv("task", rec.task_id);
  w.kv("run", rec.run_id);
  w.kv("deadline", rec.deadline);
  w.end_object();
}

/// A thread_name metadata record — this is what makes Perfetto show a
/// labelled track per node.
void thread_name(JsonWriter& w, int tid, const std::string& name) {
  w.begin_object();
  w.kv("ph", "M");
  w.kv("name", "thread_name");
  w.kv("pid", 1);
  w.kv("tid", tid);
  w.key("args").begin_object().kv("name", name).end_object();
  w.end_object();
}

const char* slice_end_tag(TraceEvent e) {
  switch (e) {
    case TraceEvent::kCompleted: return "complete";
    case TraceEvent::kPreempted: return "preempt";
    case TraceEvent::kAborted: return "abort";
    case TraceEvent::kFailed: return "fail";
    default: return "?";
  }
}

}  // namespace

void write_chrome_trace(const Tracer& tracer, int node_count,
                        std::ostream& os) {
  // One buffer reused per event: a long trace never sits in memory whole.
  std::string buf;
  JsonWriter w(buf);
  const auto drain = [&] {
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  };
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  for (int n = 0; n < node_count; ++n) {
    thread_name(w, n, "node " + std::to_string(n));
  }
  const int global_tid = node_count;
  thread_name(w, global_tid, "global runs");
  drain();

  // Service slices are open from kStarted until the next terminal event of
  // the same task; a bounded ring can drop a start, in which case the
  // terminal event degrades to an instant.
  struct OpenSlice {
    double start = 0.0;
    int node = -1;
  };
  // Ordered so the leftover-slice sweep below emits in task-id order
  // (byte-identical output for identical traces).
  std::map<std::uint64_t, OpenSlice> open;

  double horizon = 0.0;
  for (const TraceRecord& rec : tracer.records()) {
    if (rec.time > horizon) horizon = rec.time;
    switch (rec.event) {
      case TraceEvent::kSubmitted:
        event_head(w, "i", rec.time, rec.node);
        w.kv("name", "submit");
        w.kv("s", "t");
        task_args(w, rec);
        w.end_object();
        break;

      case TraceEvent::kStarted:
        open[rec.task_id] = OpenSlice{rec.time, rec.node};
        // Subtasks step their run's flow when they enter service, so
        // Perfetto draws submit -> slices -> done arrows per run.
        if (rec.run_id != 0) {
          event_head(w, "t", rec.time, rec.node);
          w.kv("name", "run");
          w.kv("id", rec.run_id);
          w.end_object();
        }
        break;

      case TraceEvent::kCompleted:
      case TraceEvent::kPreempted:
      case TraceEvent::kAborted:
      case TraceEvent::kFailed: {
        const auto it = open.find(rec.task_id);
        if (it != open.end()) {
          event_head(w, "X", it->second.start, it->second.node);
          w.kv("dur", to_us(rec.time - it->second.start));
          w.kv("name",
               (rec.run_id != 0 ? "subtask " : "task ") +
                   std::to_string(rec.task_id));
          w.kv("cat", rec.run_id != 0 ? "subtask" : "local");
          w.key("args").begin_object();
          w.kv("task", rec.task_id);
          w.kv("run", rec.run_id);
          w.kv("deadline", rec.deadline);
          w.kv("end", slice_end_tag(rec.event));
          w.end_object();
          w.end_object();
          open.erase(it);
        } else {
          event_head(w, "i", rec.time, rec.node);
          w.kv("name", to_string(rec.event));
          w.kv("s", "t");
          task_args(w, rec);
          w.end_object();
        }
        break;
      }

      case TraceEvent::kGlobalSubmitted:
        event_head(w, "i", rec.time, global_tid);
        w.kv("name", "run submitted");
        w.kv("s", "p");
        task_args(w, rec);
        w.end_object();
        event_head(w, "s", rec.time, global_tid);
        w.kv("name", "run");
        w.kv("id", rec.run_id);
        w.end_object();
        break;

      case TraceEvent::kGlobalCompleted:
      case TraceEvent::kGlobalAborted:
      case TraceEvent::kGlobalShed:
        event_head(w, "i", rec.time, global_tid);
        w.kv("name", std::string("run ") + to_string(rec.event));
        w.kv("s", "p");
        task_args(w, rec);
        w.end_object();
        event_head(w, "f", rec.time, global_tid);
        w.kv("name", "run");
        w.kv("id", rec.run_id);
        w.kv("bp", "e");
        w.end_object();
        break;
    }
    drain();
  }

  // Close slices still in service at the horizon (the run ended mid-leg).
  for (const auto& [task_id, slice] : open) {
    event_head(w, "X", slice.start, slice.node);
    w.kv("dur", to_us(horizon - slice.start));
    w.kv("name", "task " + std::to_string(task_id));
    w.kv("cat", "open");
    w.end_object();
  }

  w.end_array();
  w.end_object();
  buf += '\n';
  drain();
}

void write_chrome_trace_file(const Tracer& tracer, int node_count,
                             const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open trace output file: " + path);
  }
  write_chrome_trace(tracer, node_count, os);
}

}  // namespace sda::metrics
