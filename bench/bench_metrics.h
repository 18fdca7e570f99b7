#ifndef CORRMINE_BENCH_BENCH_METRICS_H_
#define CORRMINE_BENCH_BENCH_METRICS_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/metrics.h"

namespace corrmine {
namespace bench {

/// Formats one JSON number exactly. Integral values below 2^53 print as
/// plain integers — never scientific notation, which loses bytes the
/// moment a byte count or row count round-trips through a BENCH_*.json
/// seed ("3.35544e+07" was once 33554432). Fractional values use the
/// shortest decimal that parses back to the same double.
inline std::string FormatJsonNumber(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0 /* 2^53 */) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Prints the global metrics registry as one machine-greppable line:
///   BENCH_METRICS {"bench":"<name>", ...registry snapshot...}
/// Every bench binary calls this at exit, so scripted sweeps can diff the
/// instrumentation (cache hits, candidates, pool activity) across runs
/// without parsing the human-readable tables.
inline void EmitMetricsLine(const char* bench_name) {
  // ToJson always renders "{\"counters\":...}"; splice the bench name in
  // as the object's first key.
  std::string snapshot = MetricsRegistry::Global().ToJson();
  std::printf("BENCH_METRICS {\"bench\":\"%s\",%s\n", bench_name,
              snapshot.c_str() + 1);
  std::fflush(stdout);
}

/// Prints one bench-result JSON line in the shared envelope:
///   BENCH_JSON {"bench":"<name>",<fields>}
/// `fields` is the comma-joined interior of the object ("\"runs\":[...]"),
/// WITHOUT braces or a leading comma. Benches that seed BENCH_*.json
/// trajectory files route through here so the prefix, the envelope key and
/// the trailing blank line (which separates the line from the
/// human-readable table) stay consistent across binaries — statsdiff and
/// the sweep scripts grep for exactly this shape.
inline void EmitBenchJsonLine(const char* bench_name,
                              const std::string& fields) {
  std::printf("BENCH_JSON {\"bench\":\"%s\",%s}\n\n", bench_name,
              fields.c_str());
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace corrmine

#endif  // CORRMINE_BENCH_BENCH_METRICS_H_
