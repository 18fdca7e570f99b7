#include "io/result_io.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "io/binary_io.h"

namespace corrmine::io {

namespace {

template <typename Int>
void AppendInt(std::string* out, Int value) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// Appends `value` as printf's "%.17g" would: to_chars in the general
/// format with a precision is specified as printf with that precision.
void AppendDouble(std::string* out, double value) {
  char buf[32];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 17)
                       .ptr);
}

}  // namespace

std::string SerializeMiningResult(const MiningResult& result) {
  // Reserve the widest possible output once: at most 128 bytes per level or
  // rule line before its items and 11 per item.
  size_t items = 0;
  for (const CorrelationRule& rule : result.significant) {
    items += rule.itemset.size();
  }
  std::string out;
  out.reserve(32 + 128 * (result.levels.size() + result.significant.size()) +
              11 * items);
  out += "# corrmine result v1\n";
  for (const LevelStats& level : result.levels) {
    out += "level ";
    AppendInt(&out, level.level);
    for (const uint64_t field :
         {level.possible_itemsets, level.candidates, level.discards,
          level.significant, level.not_significant}) {
      out += ' ';
      AppendInt(&out, field);
    }
    out += '\n';
  }
  for (const CorrelationRule& rule : result.significant) {
    out += "rule ";
    AppendDouble(&out, rule.chi2.statistic);
    out += ' ';
    AppendDouble(&out, rule.chi2.p_value);
    out += ' ';
    AppendInt(&out, rule.chi2.dof);
    out += ' ';
    AppendInt(&out, rule.major_dependence.mask);
    out += ' ';
    AppendDouble(&out, rule.major_dependence.interest);
    for (ItemId item : rule.itemset) {
      out += ' ';
      AppendInt(&out, item);
    }
    out += '\n';
  }
  return out;
}

Status WriteMiningResult(const MiningResult& result,
                         const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  file << SerializeMiningResult(result);
  file.flush();
  if (!file) {
    return Status::IOError("error writing " + path);
  }
  return Status::OK();
}

StatusOr<MiningResult> ParseMiningResult(const std::string& text) {
  MiningResult result;
  std::istringstream stream(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    std::string_view trimmed = TrimString(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::vector<std::string_view> fields = SplitString(trimmed);
    auto fail = [&](const std::string& why) {
      return Status::Corruption("line " + std::to_string(line_no) + ": " +
                                why);
    };
    if (fields[0] == "level") {
      if (fields.size() != 7) return fail("level row needs 6 fields");
      LevelStats level;
      CORRMINE_ASSIGN_OR_RETURN(uint64_t lvl, ParseUint64(fields[1]));
      level.level = static_cast<int>(lvl);
      CORRMINE_ASSIGN_OR_RETURN(level.possible_itemsets,
                                ParseUint64(fields[2]));
      CORRMINE_ASSIGN_OR_RETURN(level.candidates, ParseUint64(fields[3]));
      CORRMINE_ASSIGN_OR_RETURN(level.discards, ParseUint64(fields[4]));
      CORRMINE_ASSIGN_OR_RETURN(level.significant, ParseUint64(fields[5]));
      CORRMINE_ASSIGN_OR_RETURN(level.not_significant,
                                ParseUint64(fields[6]));
      result.levels.push_back(level);
    } else if (fields[0] == "rule") {
      if (fields.size() < 8) return fail("rule row needs >= 7 fields");
      CorrelationRule rule;
      CORRMINE_ASSIGN_OR_RETURN(rule.chi2.statistic,
                                ParseDouble(fields[1]));
      CORRMINE_ASSIGN_OR_RETURN(rule.chi2.p_value, ParseDouble(fields[2]));
      CORRMINE_ASSIGN_OR_RETURN(uint64_t dof, ParseUint64(fields[3]));
      rule.chi2.dof = static_cast<int64_t>(dof);
      CORRMINE_ASSIGN_OR_RETURN(uint64_t mask, ParseUint64(fields[4]));
      if (mask > UINT32_MAX) return fail("mask out of range");
      rule.major_dependence.mask = static_cast<uint32_t>(mask);
      CORRMINE_ASSIGN_OR_RETURN(rule.major_dependence.interest,
                                ParseDouble(fields[5]));
      std::vector<ItemId> items;
      for (size_t f = 6; f < fields.size(); ++f) {
        CORRMINE_ASSIGN_OR_RETURN(uint64_t id, ParseUint64(fields[f]));
        if (id > UINT32_MAX) return fail("item id out of range");
        items.push_back(static_cast<ItemId>(id));
      }
      rule.itemset = Itemset(std::move(items));
      result.significant.push_back(std::move(rule));
    } else {
      return fail("unknown record type '" + std::string(fields[0]) + "'");
    }
  }
  return result;
}

StatusOr<MiningResult> ReadMiningResult(const std::string& path) {
  CORRMINE_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseMiningResult(text);
}

}  // namespace corrmine::io
