// Regression sentinel for corrmine-stats-v1 documents (and Chrome traces).
//
// Usage:
//   statsdiff <baseline.json> <candidate.json>
//       [--timing-tolerance R]    fail when timing/memory values drift more
//                                 than fraction R (default: report only)
//       [--counters P1,P2,...]    also require exact equality for runtime
//                                 counters/gauges whose name starts with one
//                                 of the given prefixes (e.g.
//                                 "miner.,count_provider.", or
//                                 "kernel." for the counting-kernel word
//                                 counters, which are kernel-invariant)
//   statsdiff --validate-trace <trace.json>
//   statsdiff --validate-profile <stats.json>
//   statsdiff --validate-collapsed <profile.folded>
//
// The deterministic section is compared exactly, using the raw number
// literals from the file — never parsed doubles, so 64-bit counters compare
// at full precision. Any drift there is a regression: that section is
// contractually byte-identical across --threads and --shards (DESIGN.md §6).
// Runtime timings and "mem.*" gauges are machine noise; they are summarized,
// and only enforced when --timing-tolerance is given.
//
// Exit codes: 0 = match, 1 = drift / invalid trace, 2 = usage or I/O error.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "io/json_reader.h"

namespace corrmine {
namespace {

struct DiffReport {
  std::vector<std::string> failures;   // drift that fails the run
  std::vector<std::string> notes;      // report-only observations

  void Fail(const std::string& path, const std::string& what) {
    failures.push_back(path + ": " + what);
  }
  void Note(const std::string& note) { notes.push_back(note); }
};

StatusOr<io::JsonValue> LoadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream content;
  content << in.rdbuf();
  if (in.bad()) return Status::IOError("error reading " + path);
  auto parsed = io::ParseJson(content.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

const char* TypeName(io::JsonValue::Type type) {
  switch (type) {
    case io::JsonValue::Type::kNull: return "null";
    case io::JsonValue::Type::kBool: return "bool";
    case io::JsonValue::Type::kNumber: return "number";
    case io::JsonValue::Type::kString: return "string";
    case io::JsonValue::Type::kArray: return "array";
    case io::JsonValue::Type::kObject: return "object";
  }
  return "?";
}

std::string Render(const io::JsonValue& v) {
  switch (v.type) {
    case io::JsonValue::Type::kNull: return "null";
    case io::JsonValue::Type::kBool: return v.bool_value ? "true" : "false";
    case io::JsonValue::Type::kNumber: return v.literal;
    case io::JsonValue::Type::kString: return "\"" + v.string_value + "\"";
    case io::JsonValue::Type::kArray:
      return "<array of " + std::to_string(v.array.size()) + ">";
    case io::JsonValue::Type::kObject:
      return "<object of " + std::to_string(v.object.size()) + ">";
  }
  return "?";
}

/// Exact structural equality. Numbers compare by raw literal text so 64-bit
/// counters cannot alias through double rounding; objects compare by key
/// (order-insensitive), arrays element-wise.
void DiffExact(const std::string& path, const io::JsonValue& a,
               const io::JsonValue& b, DiffReport* report) {
  if (a.type != b.type) {
    report->Fail(path, std::string("type ") + TypeName(a.type) + " vs " +
                           TypeName(b.type));
    return;
  }
  switch (a.type) {
    case io::JsonValue::Type::kNull:
      return;
    case io::JsonValue::Type::kBool:
      if (a.bool_value != b.bool_value) {
        report->Fail(path, Render(a) + " != " + Render(b));
      }
      return;
    case io::JsonValue::Type::kNumber:
      if (a.literal != b.literal) {
        report->Fail(path, a.literal + " != " + b.literal);
      }
      return;
    case io::JsonValue::Type::kString:
      if (a.string_value != b.string_value) {
        report->Fail(path, Render(a) + " != " + Render(b));
      }
      return;
    case io::JsonValue::Type::kArray: {
      if (a.array.size() != b.array.size()) {
        report->Fail(path, "length " + std::to_string(a.array.size()) +
                               " != " + std::to_string(b.array.size()));
        return;
      }
      for (size_t i = 0; i < a.array.size(); ++i) {
        DiffExact(path + "[" + std::to_string(i) + "]", a.array[i],
                  b.array[i], report);
      }
      return;
    }
    case io::JsonValue::Type::kObject: {
      for (const auto& [key, value] : a.object) {
        const io::JsonValue* other = b.Find(key);
        if (other == nullptr) {
          report->Fail(path + "." + key, "missing in candidate");
          continue;
        }
        DiffExact(path + "." + key, value, *other, report);
      }
      for (const auto& [key, value] : b.object) {
        if (a.Find(key) == nullptr) {
          report->Fail(path + "." + key, "missing in baseline");
        }
      }
      return;
    }
  }
}

/// Timing-ish metric names never carry determinism guarantees: wall-clock
/// nanoseconds, memory byte counts, the pool.* scheduler family
/// (submissions, waits, queue depths — all schedule noise by definition),
/// and the column.* storage gauges (container mix and payload bytes track
/// the provider's physical layout, which legitimately differs between an
/// in-memory index and its spilled shard files). They move with the
/// machine or the storage plan, not the mined answer.
bool IsTimingLike(const std::string& name) {
  if (name.size() >= 2 && name.compare(name.size() - 2, 2, "ns") == 0) {
    return true;
  }
  return name.rfind("mem.", 0) == 0 || name.rfind("pool.", 0) == 0 ||
         name.rfind("column.", 0) == 0;
}

bool MatchesAnyPrefix(const std::string& name,
                      const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// Walks one runtime scalar family ("counters" or "gauges") of both docs.
void DiffRuntimeFamily(const std::string& family, const io::JsonValue* a,
                       const io::JsonValue* b, double timing_tolerance,
                       const std::vector<std::string>& counter_prefixes,
                       DiffReport* report) {
  if (a == nullptr || b == nullptr || !a->is_object() || !b->is_object()) {
    return;
  }
  for (const auto& [name, value] : a->object) {
    const io::JsonValue* other = b->Find(name);
    if (other == nullptr || !value.is_number() || !other->is_number()) {
      continue;
    }
    const std::string path = "runtime." + family + "." + name;
    if (IsTimingLike(name)) {
      const double lhs = value.number_value;
      const double rhs = other->number_value;
      const double scale = std::max(std::fabs(lhs), std::fabs(rhs));
      const double drift = scale > 0 ? std::fabs(lhs - rhs) / scale : 0.0;
      if (timing_tolerance >= 0 && drift > timing_tolerance) {
        std::ostringstream what;
        what << value.literal << " vs " << other->literal << " (drift "
             << drift << " > tolerance " << timing_tolerance << ")";
        report->Fail(path, what.str());
      } else if (drift > 0.10) {
        std::ostringstream note;
        note << path << ": " << value.literal << " vs " << other->literal
             << " (report only)";
        report->Note(note.str());
      }
      continue;
    }
    if (MatchesAnyPrefix(name, counter_prefixes) &&
        value.literal != other->literal) {
      report->Fail(path, value.literal + " != " + other->literal);
    }
  }
}

int DiffStats(const std::string& baseline_path,
              const std::string& candidate_path, double timing_tolerance,
              const std::vector<std::string>& counter_prefixes) {
  auto baseline_or = LoadJsonFile(baseline_path);
  if (!baseline_or.ok()) {
    std::cerr << baseline_or.status().ToString() << "\n";
    return 2;
  }
  auto candidate_or = LoadJsonFile(candidate_path);
  if (!candidate_or.ok()) {
    std::cerr << candidate_or.status().ToString() << "\n";
    return 2;
  }
  const io::JsonValue& baseline = *baseline_or;
  const io::JsonValue& candidate = *candidate_or;

  DiffReport report;
  for (const io::JsonValue* doc : {&baseline, &candidate}) {
    const io::JsonValue* schema =
        doc->is_object() ? doc->Find("schema") : nullptr;
    if (schema == nullptr || !schema->is_string() ||
        schema->string_value != "corrmine-stats-v1") {
      std::cerr << (doc == &baseline ? baseline_path : candidate_path)
                << ": not a corrmine-stats-v1 document\n";
      return 2;
    }
  }

  const io::JsonValue* det_a = baseline.Find("deterministic");
  const io::JsonValue* det_b = candidate.Find("deterministic");
  if (det_a == nullptr || det_b == nullptr) {
    std::cerr << "missing \"deterministic\" section\n";
    return 2;
  }
  // Kernel identity is machine-dependent by construction (runtime SIMD
  // dispatch, DESIGN.md §9), so it must never leak into the deterministic
  // section; a writer that puts it there has broken the byte-identity
  // contract even if both files happen to agree today.
  for (const io::JsonValue* det : {det_a, det_b}) {
    if (det->is_object() && det->Find("kernel") != nullptr) {
      report.Fail("deterministic.kernel",
                  "kernel info inside the deterministic section");
    }
    // Same contract for profiling data: PMU counters and sample tallies
    // are machine noise by definition and may never live where byte
    // identity is promised.
    if (det->is_object() && det->Find("profile") != nullptr) {
      report.Fail("deterministic.profile",
                  "profile info inside the deterministic section");
    }
  }
  DiffExact("deterministic", *det_a, *det_b, &report);

  // The top-level "kernel" object is report-only: differing kernels across
  // the two runs is exactly the situation statsdiff exists to vet.
  const io::JsonValue* kernel_a = baseline.Find("kernel");
  const io::JsonValue* kernel_b = candidate.Find("kernel");
  if (kernel_a != nullptr && kernel_b != nullptr && kernel_a->is_object() &&
      kernel_b->is_object()) {
    const io::JsonValue* name_a = kernel_a->Find("name");
    const io::JsonValue* name_b = kernel_b->Find("name");
    if (name_a != nullptr && name_b != nullptr && name_a->is_string() &&
        name_b->is_string() && name_a->string_value != name_b->string_value) {
      report.Note("kernel.name: \"" + name_a->string_value + "\" vs \"" +
                  name_b->string_value + "\" (report only)");
    }
  }

  // The runtime families are always compared. A sentinel that names
  // counter prefixes must never pass by comparing nothing, so a document
  // without a runtime counters object fails it.
  auto runtime_family = [](const io::JsonValue& doc, const char* family) {
    const io::JsonValue* runtime = doc.Find("runtime");
    return runtime != nullptr ? runtime->Find(family) : nullptr;
  };
  if (!counter_prefixes.empty()) {
    for (const io::JsonValue* doc : {&baseline, &candidate}) {
      const io::JsonValue* counters = runtime_family(*doc, "counters");
      if (counters == nullptr || !counters->is_object()) {
        report.Fail(doc == &baseline ? baseline_path : candidate_path,
                    "no runtime counters object to compare --counters on");
      }
    }
  }
  for (const char* family : {"counters", "gauges"}) {
    DiffRuntimeFamily(family, runtime_family(baseline, family),
                      runtime_family(candidate, family), timing_tolerance,
                      counter_prefixes, &report);
  }

  for (const std::string& note : report.notes) {
    std::cerr << "note: " << note << "\n";
  }
  if (!report.failures.empty()) {
    for (const std::string& failure : report.failures) {
      std::cerr << "DRIFT " << failure << "\n";
    }
    std::cerr << report.failures.size() << " drifting value(s) between "
              << baseline_path << " and " << candidate_path << "\n";
    return 1;
  }
  std::cout << "stats match: " << baseline_path << " == " << candidate_path
            << "\n";
  return 0;
}

/// Chrome Trace Event Format checks: the envelope shape, per-event required
/// fields, balanced B/E nesting per (pid, tid), and non-decreasing
/// timestamps per thread track. These are exactly the invariants the
/// exporter promises (common/trace.h), so a violation means a broken writer,
/// not an odd workload.
int ValidateTrace(const std::string& path) {
  auto doc_or = LoadJsonFile(path);
  if (!doc_or.ok()) {
    std::cerr << doc_or.status().ToString() << "\n";
    return 2;
  }
  const io::JsonValue& doc = *doc_or;
  std::vector<std::string> errors;
  const io::JsonValue* events =
      doc.is_object() ? doc.Find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) {
    std::cerr << path << ": no \"traceEvents\" array\n";
    return 1;
  }

  struct Track {
    std::string key;
    std::vector<std::string> open;  // stack of open span names
    double last_ts = -1;
  };
  std::vector<Track> tracks;
  auto track_for = [&tracks](const std::string& key) -> Track& {
    for (Track& t : tracks) {
      if (t.key == key) return t;
    }
    tracks.push_back(Track{key, {}, -1});
    return tracks.back();
  };

  for (size_t i = 0; i < events->array.size(); ++i) {
    const io::JsonValue& event = events->array[i];
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    if (!event.is_object()) {
      errors.push_back(where + ": not an object");
      continue;
    }
    const io::JsonValue* name = event.Find("name");
    const io::JsonValue* ph = event.Find("ph");
    const io::JsonValue* ts = event.Find("ts");
    const io::JsonValue* pid = event.Find("pid");
    const io::JsonValue* tid = event.Find("tid");
    if (name == nullptr || !name->is_string() || name->string_value.empty()) {
      errors.push_back(where + ": missing \"name\"");
      continue;
    }
    if (ph == nullptr || !ph->is_string()) {
      errors.push_back(where + ": missing \"ph\"");
      continue;
    }
    if (ts == nullptr || !ts->is_number()) {
      errors.push_back(where + ": missing numeric \"ts\"");
      continue;
    }
    if (pid == nullptr || !pid->is_number() || tid == nullptr ||
        !tid->is_number()) {
      errors.push_back(where + ": missing \"pid\"/\"tid\"");
      continue;
    }
    const std::string& phase = ph->string_value;
    if (phase != "B" && phase != "E" && phase != "i" && phase != "M") {
      errors.push_back(where + ": unexpected phase \"" + phase + "\"");
      continue;
    }
    if (phase == "M") continue;  // Metadata events carry no timeline.
    Track& track = track_for(pid->literal + "/" + tid->literal);
    if (ts->number_value < track.last_ts) {
      errors.push_back(where + ": timestamp " + ts->literal +
                       " goes backwards on tid " + tid->literal);
    }
    track.last_ts = ts->number_value;
    if (phase == "B") {
      track.open.push_back(name->string_value);
    } else if (phase == "E") {
      if (track.open.empty()) {
        errors.push_back(where + ": E \"" + name->string_value +
                         "\" with no open span on tid " + tid->literal);
      } else {
        if (track.open.back() != name->string_value) {
          errors.push_back(where + ": E \"" + name->string_value +
                           "\" closes \"" + track.open.back() + "\"");
        }
        track.open.pop_back();
      }
    } else if (phase == "i") {
      const io::JsonValue* scope = event.Find("s");
      if (scope == nullptr || !scope->is_string()) {
        errors.push_back(where + ": instant without \"s\" scope");
      }
    }
  }
  for (const Track& track : tracks) {
    for (const std::string& open : track.open) {
      errors.push_back("unclosed span \"" + open + "\" on track " +
                       track.key);
    }
  }

  if (!errors.empty()) {
    for (const std::string& error : errors) {
      std::cerr << "INVALID " << error << "\n";
    }
    std::cerr << path << ": " << errors.size() << " trace violation(s)\n";
    return 1;
  }
  std::cout << "trace valid: " << path << " ("
            << events->array.size() << " events, "
            << tracks.size() << " thread tracks)\n";
  return 0;
}

/// Structural checks for the stats-JSON "profile" section
/// (io/stats_json.h, DESIGN.md §13). Verifies shape, not values: the
/// section is machine-dependent by design, but a malformed one means a
/// broken writer. Passes on every configuration the writer supports —
/// PMU denied, sampling off, metrics compiled out — because the writer
/// must emit a structurally complete section in all of them.
int ValidateProfile(const std::string& path) {
  auto doc_or = LoadJsonFile(path);
  if (!doc_or.ok()) {
    std::cerr << doc_or.status().ToString() << "\n";
    return 2;
  }
  const io::JsonValue& doc = *doc_or;
  std::vector<std::string> errors;
  const io::JsonValue* profile =
      doc.is_object() ? doc.Find("profile") : nullptr;
  if (profile == nullptr || !profile->is_object()) {
    std::cerr << path << ": no \"profile\" object\n";
    return 1;
  }

  auto require_number = [&errors](const io::JsonValue* obj,
                                  const std::string& where,
                                  const char* key) {
    const io::JsonValue* v = obj->Find(key);
    if (v == nullptr || !v->is_number()) {
      errors.push_back(where + "." + key + ": missing or not a number");
      return;
    }
    if (v->number_value < 0 || !std::isfinite(v->number_value)) {
      errors.push_back(where + "." + key + ": " + v->literal +
                       " outside [0,inf)");
    }
  };

  const io::JsonValue* pmu = profile->Find("pmu");
  if (pmu == nullptr || !pmu->is_object()) {
    errors.push_back("profile.pmu: missing object");
  } else {
    const io::JsonValue* available = pmu->Find("available");
    if (available == nullptr || available->type != io::JsonValue::Type::kBool) {
      errors.push_back("profile.pmu.available: missing or not a boolean");
    }
    const io::JsonValue* reason = pmu->Find("reason");
    if (reason == nullptr || !reason->is_string()) {
      errors.push_back("profile.pmu.reason: missing or not a string");
    } else if (available != nullptr && available->type == io::JsonValue::Type::kBool &&
               !available->bool_value && reason->string_value.empty()) {
      errors.push_back(
          "profile.pmu.reason: empty while pmu is unavailable — the "
          "degradation contract requires an explanation");
    }
    const io::JsonValue* requested = pmu->Find("requested");
    if (requested == nullptr || requested->type != io::JsonValue::Type::kBool) {
      errors.push_back("profile.pmu.requested: missing or not a boolean");
    }
  }

  const io::JsonValue* phases = profile->Find("phases");
  size_t num_phases = 0;
  if (phases == nullptr || !phases->is_object()) {
    errors.push_back("profile.phases: missing object");
  } else {
    num_phases = phases->object.size();
    for (const auto& [name, phase] : phases->object) {
      const std::string where = "profile.phases." + name;
      if (!phase.is_object()) {
        errors.push_back(where + ": not an object");
        continue;
      }
      for (const char* key :
           {"scopes", "cycles", "instructions", "ipc", "llc_loads",
            "llc_misses", "llc_miss_rate", "branch_misses",
            "branch_miss_rate", "task_clock_ns"}) {
        require_number(&phase, where, key);
      }
    }
  }

  const io::JsonValue* sampling = profile->Find("sampling");
  if (sampling == nullptr || !sampling->is_object()) {
    errors.push_back("profile.sampling: missing object");
  } else {
    const io::JsonValue* enabled = sampling->Find("enabled");
    if (enabled == nullptr || enabled->type != io::JsonValue::Type::kBool) {
      errors.push_back("profile.sampling.enabled: missing or not a boolean");
    }
    for (const char* key :
         {"samples", "dropped", "unresolved", "interval_usec"}) {
      require_number(sampling, "profile.sampling", key);
    }
  }

  if (!errors.empty()) {
    for (const std::string& error : errors) {
      std::cerr << "INVALID " << error << "\n";
    }
    std::cerr << path << ": " << errors.size() << " profile violation(s)\n";
    return 1;
  }
  std::cout << "profile valid: " << path << " (" << num_phases
            << " phases)\n";
  return 0;
}

/// Collapsed-stack format checks (flamegraph.pl input): every non-empty
/// line is "frame[;frame...] count" — a space-separated trailing integer
/// count >= 1 and a non-empty semicolon-separated frame list with no empty
/// frames. An empty file is valid (no samples captured, e.g. a sub-tick
/// run), but reported so CI can distinguish it.
int ValidateCollapsed(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 2;
  }
  std::vector<std::string> errors;
  std::string line;
  size_t line_no = 0;
  size_t stacks = 0;
  uint64_t samples = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where = path + ":" + std::to_string(line_no);
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 >= line.size()) {
      errors.push_back(where + ": no \"frames count\" separator");
      continue;
    }
    const std::string count_str = line.substr(space + 1);
    bool digits = true;
    for (char c : count_str) {
      if (c < '0' || c > '9') digits = false;
    }
    if (!digits || count_str == "0") {
      errors.push_back(where + ": count \"" + count_str +
                       "\" is not a positive integer");
      continue;
    }
    const std::string frames = line.substr(0, space);
    bool empty_frame = frames.front() == ';' || frames.back() == ';';
    for (size_t i = 0; i + 1 < frames.size(); ++i) {
      if (frames[i] == ';' && frames[i + 1] == ';') empty_frame = true;
    }
    if (empty_frame) {
      errors.push_back(where + ": empty frame in stack");
      continue;
    }
    ++stacks;
    samples += std::strtoull(count_str.c_str(), nullptr, 10);
  }
  if (in.bad()) {
    std::cerr << "error reading " << path << "\n";
    return 2;
  }
  if (!errors.empty()) {
    for (const std::string& error : errors) {
      std::cerr << "INVALID " << error << "\n";
    }
    std::cerr << path << ": " << errors.size()
              << " collapsed-stack violation(s)\n";
    return 1;
  }
  std::cout << "collapsed stacks valid: " << path << " (" << stacks
            << " unique stacks, " << samples << " samples)\n";
  return 0;
}

int Main(int argc, const char* const* argv) {
  auto flags_or = FlagParser::Parse(argc - 1, argv + 1);
  if (!flags_or.ok()) {
    std::cerr << flags_or.status().ToString() << "\n";
    return 2;
  }
  const FlagParser& flags = *flags_or;

  std::string trace_path = flags.GetString("validate-trace", "");
  if (!trace_path.empty()) return ValidateTrace(trace_path);
  std::string profile_path = flags.GetString("validate-profile", "");
  if (!profile_path.empty()) return ValidateProfile(profile_path);
  std::string collapsed_path = flags.GetString("validate-collapsed", "");
  if (!collapsed_path.empty()) return ValidateCollapsed(collapsed_path);

  if (flags.GetBool("help", false) || flags.positional().size() != 2) {
    std::cerr << "usage: statsdiff <baseline.json> <candidate.json>\n"
                 "           [--timing-tolerance R] [--counters P1,P2,...]\n"
                 "       statsdiff --validate-trace <trace.json>\n"
                 "       statsdiff --validate-profile <stats.json>\n"
                 "       statsdiff --validate-collapsed <profile.folded>\n";
    return flags.GetBool("help", false) ? 0 : 2;
  }

  double timing_tolerance = -1;
  {
    auto tol_or = flags.GetDouble("timing-tolerance", -1);
    if (!tol_or.ok()) {
      std::cerr << tol_or.status().ToString() << "\n";
      return 2;
    }
    timing_tolerance = *tol_or;
  }
  std::vector<std::string> counter_prefixes;
  const std::string counters_arg = flags.GetString("counters", "");
  for (std::string_view token : SplitString(counters_arg, ",")) {
    std::string_view trimmed = TrimString(token);
    if (!trimmed.empty()) counter_prefixes.emplace_back(trimmed);
  }

  return DiffStats(flags.positional()[0], flags.positional()[1],
                   timing_tolerance, counter_prefixes);
}

}  // namespace
}  // namespace corrmine

int main(int argc, char** argv) { return corrmine::Main(argc, argv); }
