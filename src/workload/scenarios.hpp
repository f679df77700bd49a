// Named application scenarios: serial-parallel task shapes drawn from the
// paper's motivating discussion and kin, expressed as stage-width lists for
// StagedShape (global_kind=graph's stage_widths).  Each scenario documents
// what the stages stand for, so examples and the CLI driver can reference
// realistic workloads by name.
#pragma once

#include <string>
#include <vector>

namespace sda::workload {

struct Scenario {
  std::string name;
  std::string description;
  std::vector<int> stage_widths;
};

/// All built-in scenarios:
///  * stock-trading  {1,4,1,4,1}  — the paper's Figure 14 pipeline:
///    init, gather from 4 sources, analyze, place 4 orders, conclude.
///  * web-request    {1,5,1}      — parse, fan out to 5 backends, render.
///  * sensor-fusion  {6,1,1}      — sample 6 sensors, fuse, actuate.
///  * etl-pipeline   {1,3,1,3,1}  — extract, 3-way transform, merge,
///    3-way load, verify.
///  * map-reduce     {1,6,1}      — split, 6 mappers, reduce (k >= 6).
const std::vector<Scenario>& scenarios();

/// Looks up a scenario by name; throws std::invalid_argument with the list
/// of known names when absent.
const Scenario& find_scenario(const std::string& name);

}  // namespace sda::workload
