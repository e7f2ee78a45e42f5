#include "rtc/harness/trace.hpp"

#include <vector>

#include "rtc/obs/trace_json.hpp"

namespace rtc::harness {

void write_perfetto_trace(const comm::RunStats& stats,
                          const std::string& path) {
  std::vector<std::vector<obs::Span>> per_rank;
  std::vector<std::vector<std::pair<int, double>>> marks;
  per_rank.reserve(stats.ranks.size());
  marks.reserve(stats.ranks.size());
  for (const comm::RankStats& r : stats.ranks) {
    per_rank.push_back(r.spans);
    marks.push_back(r.marks);
  }
  obs::write_trace_json_file(per_rank, marks, path);
}

}  // namespace rtc::harness
