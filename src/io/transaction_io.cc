#include "io/transaction_io.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "common/string_util.h"
#include "io/binary_io.h"

namespace corrmine::io {

namespace {

struct ParsedLines {
  std::vector<std::vector<ItemId>> baskets;
  ItemId max_item = 0;
  bool any_item = false;
};

StatusOr<ParsedLines> ParseIdLines(const std::string& text) {
  ParsedLines parsed;
  std::istringstream stream(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    CORRMINE_ASSIGN_OR_RETURN(std::optional<std::vector<ItemId>> basket,
                              ParseTransactionLine(line, line_no));
    if (!basket.has_value()) continue;
    for (ItemId id : *basket) {
      parsed.max_item = std::max(parsed.max_item, id);
      parsed.any_item = true;
    }
    parsed.baskets.push_back(std::move(*basket));
  }
  return parsed;
}

StatusOr<TransactionDatabase> BuildDatabase(ParsedLines parsed,
                                            ItemId num_items_hint) {
  ItemId num_items = num_items_hint;
  if (parsed.any_item && parsed.max_item + 1 > num_items) {
    num_items = parsed.max_item + 1;
  }
  if (num_items == 0) num_items = 1;
  TransactionDatabase db(num_items);
  for (auto& basket : parsed.baskets) {
    CORRMINE_RETURN_NOT_OK(db.AddBasket(std::move(basket)));
  }
  return db;
}

}  // namespace

StatusOr<std::optional<std::vector<ItemId>>> ParseTransactionLine(
    std::string_view line, size_t line_no) {
  std::string_view trimmed = TrimString(line);
  if (!trimmed.empty() && trimmed.front() == '#') {
    return std::optional<std::vector<ItemId>>();
  }
  std::vector<ItemId> basket;
  for (std::string_view token : SplitString(trimmed)) {
    auto value = ParseUint64(token);
    if (!value.ok()) {
      return Status::Corruption("line " + std::to_string(line_no) + ": " +
                                value.status().message());
    }
    if (*value > UINT32_MAX) {
      return Status::OutOfRange("line " + std::to_string(line_no) +
                                ": item id too large");
    }
    basket.push_back(static_cast<ItemId>(*value));
  }
  return std::optional<std::vector<ItemId>>(std::move(basket));
}

StatusOr<TransactionDatabase> ParseTransactions(const std::string& text,
                                                ItemId num_items_hint) {
  CORRMINE_ASSIGN_OR_RETURN(ParsedLines parsed, ParseIdLines(text));
  return BuildDatabase(std::move(parsed), num_items_hint);
}

StatusOr<TransactionDatabase> ReadTransactionFile(const std::string& path,
                                                  ItemId num_items_hint) {
  CORRMINE_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseTransactions(text, num_items_hint);
}

Status WriteTransactionFile(const TransactionDatabase& db,
                            const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    const std::vector<ItemId>& basket = db.basket(row);
    for (size_t i = 0; i < basket.size(); ++i) {
      if (i > 0) file << ' ';
      file << basket[i];
    }
    file << '\n';
  }
  file.flush();
  if (!file) {
    return Status::IOError("error writing " + path);
  }
  return Status::OK();
}

StatusOr<TransactionDatabase> ParseNamedTransactions(const std::string& text) {
  // Two passes: intern the vocabulary, then build the database with the
  // final item-space size.
  ItemDictionary dict;
  std::vector<std::vector<ItemId>> baskets;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    std::string_view trimmed = TrimString(line);
    if (!trimmed.empty() && trimmed.front() == '#') continue;
    std::vector<ItemId> basket;
    for (std::string_view token : SplitString(trimmed)) {
      basket.push_back(dict.GetOrAdd(std::string(token)));
    }
    baskets.push_back(std::move(basket));
  }
  TransactionDatabase db(
      static_cast<ItemId>(dict.size() == 0 ? 1 : dict.size()));
  db.dictionary() = std::move(dict);
  for (auto& basket : baskets) {
    CORRMINE_RETURN_NOT_OK(db.AddBasket(std::move(basket)));
  }
  return db;
}

}  // namespace corrmine::io
