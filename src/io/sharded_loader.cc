#include "io/sharded_loader.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "io/binary_io.h"
#include "io/cmb1_decoder.h"
#include "io/format_detect.h"
#include "io/transaction_io.h"

namespace corrmine::io {

namespace {

/// Loads a (possibly multi-segment) binary file in one decode pass. The
/// database is made at the first segment header and widened at each later
/// one, so delta chunks appended by `ingest` load as the concatenation of
/// their segments over the max of their item spaces, and records stream
/// straight into it — no intermediate database.
template <typename Database, typename MakeDatabase>
StatusOr<Database> LoadBinary(const std::string& path,
                              MakeDatabase make_database) {
  CORRMINE_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  std::optional<Database> db;
  Cmb1Decoder decoder;
  CORRMINE_RETURN_NOT_OK(DecodeCmb1(
      bytes, /*single_segment=*/false, &decoder,
      [&](size_t) {
        if (db) return db->GrowItemSpace(decoder.max_items());
        db.emplace(make_database(decoder.max_items()));
        return Status::OK();
      },
      [&](std::vector<ItemId>& basket) {
        return db->AddBasket(std::move(basket));
      }));
  return std::move(*db);
}

StatusOr<ShardedTransactionDatabase> LoadTextSharded(
    const std::string& path, size_t num_shards, ItemId num_items_hint) {
  std::ifstream file(path);
  if (!file) {
    return Status::IOError("cannot open " + path);
  }
  // The text format reveals its item space only at EOF, so the raw id
  // vectors are buffered once (the same storage the shards will own) and
  // handed over after the maximum id is known.
  std::vector<std::vector<ItemId>> baskets;
  ItemId max_item = 0;
  bool any_item = false;
  std::string line;
  size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    CORRMINE_ASSIGN_OR_RETURN(std::optional<std::vector<ItemId>> basket,
                              ParseTransactionLine(line, line_no));
    if (!basket.has_value()) continue;
    for (ItemId id : *basket) {
      max_item = std::max(max_item, id);
      any_item = true;
    }
    baskets.push_back(std::move(*basket));
  }
  if (file.bad()) {
    return Status::IOError("error reading " + path);
  }
  ItemId num_items = num_items_hint;
  if (any_item && max_item + 1 > num_items) num_items = max_item + 1;
  if (num_items == 0) num_items = 1;
  ShardedTransactionDatabase db(num_items, num_shards);
  for (std::vector<ItemId>& basket : baskets) {
    CORRMINE_RETURN_NOT_OK(db.AddBasket(std::move(basket)));
  }
  return db;
}

}  // namespace

Status LoadBinaryIntoIndex(const std::string& path,
                           ShardedCountProvider* index) {
  CORRMINE_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  Cmb1Decoder decoder;
  return DecodeCmb1(
      bytes, /*single_segment=*/false, &decoder,
      [&](size_t offset) {
        if (decoder.segment_baskets() > bytes.size() - offset) {
          return Status::Corruption("basket count exceeds the bytes left");
        }
        index->Reserve(decoder.max_items(),
                       index->num_baskets() + decoder.segment_baskets());
        return Status::OK();
      },
      [&](std::vector<ItemId>& basket) {
        index->AddBasket(basket);
        return Status::OK();
      });
}

StatusOr<TransactionDatabase> LoadTransactionFile(const std::string& path,
                                                  ItemId num_items_hint) {
  CORRMINE_ASSIGN_OR_RETURN(TransactionFileFormat format,
                            DetectTransactionFileFormat(path));
  if (format == TransactionFileFormat::kBinary) {
    return LoadBinary<TransactionDatabase>(
        path, [](ItemId num_items) { return TransactionDatabase(num_items); });
  }
  return ReadTransactionFile(path, num_items_hint);
}

StatusOr<ShardedTransactionDatabase> LoadTransactionFileSharded(
    const std::string& path, size_t num_shards, ItemId num_items_hint) {
  num_shards = std::max<size_t>(num_shards, 1);
  CORRMINE_ASSIGN_OR_RETURN(TransactionFileFormat format,
                            DetectTransactionFileFormat(path));
  if (format == TransactionFileFormat::kBinary) {
    return LoadBinary<ShardedTransactionDatabase>(
        path, [num_shards](ItemId num_items) {
          return ShardedTransactionDatabase(num_items, num_shards);
        });
  }
  return LoadTextSharded(path, num_shards, num_items_hint);
}

}  // namespace corrmine::io
