#ifndef CORRMINE_IO_STATS_JSON_H_
#define CORRMINE_IO_STATS_JSON_H_

#include <string>

#include "common/status.h"
#include "core/chi_squared_miner.h"

namespace corrmine {

class MetricsRegistry;

/// Machine-readable run statistics ("corrmine-stats-v1", DESIGN.md §6).
///
/// The report is split into two sections with different reproducibility
/// guarantees:
///
///  - "deterministic": derived purely from the mining result. Byte-identical
///    for the same input and options, *regardless of thread count, shard
///    count, provider or kernel* — compare these lines directly in tests
///    and CI.
///  - "runtime": a MetricsRegistry snapshot (timings, pool activity,
///    per-process counter totals). Informative, never stable across runs.
///
/// A small top-level "kernel" object ({"name","requested"}) records which
/// counting kernel (DESIGN.md §9) served the run. It is machine-dependent
/// and therefore deliberately outside "deterministic"; statsdiff treats it
/// as report-only and rejects documents where kernel info appears inside
/// the deterministic section.
///
/// Two more non-deterministic top-level sections follow the same contract
/// (present in every document, report-only for statsdiff, rejected inside
/// "deterministic"):
///  - "profile": the profiler's PMU availability + per-phase counter
///    attribution + sampling accounting (DESIGN.md §13), structurally
///    checked by `statsdiff --validate-profile`.
///  - "trace": {"dropped_events": N} — trace-ring overwrite count, the
///    signal that a Chrome trace export is missing its oldest spans.
///
/// The deterministic object is rendered onto a single line so a script (or
/// a CMake test) can `grep '"deterministic"'` two reports and compare with
/// string equality.

/// Renders the deterministic section as one compact JSON object line:
///   {"schema":"corrmine-stats-v1","rules":R,"levels":[{"level":2,
///    "possible":P,"cand":C,"discards":D,"chi2_tests":T,"masked_cells":M,
///    "sig":S,"notsig":N},...]}
std::string RenderDeterministicStats(const MiningResult& result);

/// Renders the full stats document (multi-line, human-skimmable):
///   {
///     "schema": "corrmine-stats-v1",
///     "deterministic": {...one line...},
///     "kernel": {...},
///     "profile": {...one line, profiler snapshot...},
///     "trace": {"dropped_events": N},
///     "runtime": {...one line, registry snapshot...}
///   }
/// When metrics are compiled out (CORRMINE_METRICS=OFF) the runtime section
/// reports zeros; the deterministic section is unaffected.
std::string RenderStatsJson(const MiningResult& result,
                            const MetricsRegistry& registry);

/// Writes `json` to `path` (overwriting), with a trailing newline.
Status WriteStatsJson(const std::string& path, const std::string& json);

}  // namespace corrmine

#endif  // CORRMINE_IO_STATS_JSON_H_
