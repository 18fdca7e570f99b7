#include "io/stats_json.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/metrics.h"
#include "common/profiler.h"
#include "common/trace.h"
#include "itemset/kernels.h"

namespace corrmine {

std::string RenderDeterministicStats(const MiningResult& result) {
  std::ostringstream out;
  out << "{\"schema\":\"corrmine-stats-v1\"";
  out << ",\"rules\":" << result.significant.size();
  out << ",\"levels\":[";
  for (size_t i = 0; i < result.levels.size(); ++i) {
    const LevelStats& s = result.levels[i];
    if (i > 0) out << ",";
    out << "{\"level\":" << s.level
        << ",\"possible\":" << s.possible_itemsets
        << ",\"cand\":" << s.candidates
        << ",\"discards\":" << s.discards
        << ",\"chi2_tests\":" << s.chi2_tests
        << ",\"masked_cells\":" << s.masked_cells
        << ",\"sig\":" << s.significant
        << ",\"notsig\":" << s.not_significant << "}";
  }
  out << "]}";
  return out.str();
}

std::string RenderStatsJson(const MiningResult& result,
                            const MetricsRegistry& registry) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"corrmine-stats-v1\",\n";
  out << "  \"deterministic\": "
      << RenderDeterministicStats(result) << ",\n";
  // Which counting kernel served the run, and what was requested ("auto"
  // unless forced via --kernel). Machine-dependent by nature, so it lives
  // OUTSIDE the deterministic section — statsdiff rejects any document
  // where kernel info leaks into it.
  out << "  \"kernel\": {\"name\": \"" << ActiveKernelName()
      << "\", \"requested\": \"" << RequestedKernelName() << "\"},\n";
  // Profiling attribution (DESIGN.md §13): hardware-counter phase
  // breakdown + sampling-profiler accounting. Machine- and run-dependent
  // like "kernel", so also outside "deterministic" and report-only for
  // statsdiff (structural checks via --validate-profile).
  out << "  \"profile\": " << Profiler::Global().RenderProfileJson()
      << ",\n";
  // Trace-ring health: events overwritten because a per-thread ring
  // filled. Non-zero means the Chrome trace is missing its oldest spans.
  out << "  \"trace\": {\"dropped_events\": "
      << Tracer::Global().DroppedEvents() << "},\n";
  out << "  \"runtime\": " << registry.ToJson() << "\n";
  out << "}";
  return out.str();
}

Status WriteStatsJson(const std::string& path, const std::string& json) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open stats file for writing: " + path);
  }
  out << json << "\n";
  out.flush();
  if (!out) {
    return Status::Internal("failed writing stats file: " + path);
  }
  return Status::OK();
}

}  // namespace corrmine
