#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "io/binary_io.h"
#include "io/cmb1_decoder.h"
#include "io/sharded_loader.h"
#include "io/stream_reader.h"
#include "io/transaction_io.h"
#include "test_util.h"

namespace corrmine::io {
namespace {

TEST(BinaryIoTest, EncodeDecodeRoundTrip) {
  auto db = corrmine::testing::RandomIndependentDatabase(20, 500, 9);
  std::string bytes = EncodeBinaryTransactions(db);
  auto decoded = DecodeBinaryTransactions(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_baskets(), db.num_baskets());
  EXPECT_EQ(decoded->num_items(), db.num_items());
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    EXPECT_EQ(decoded->basket(row), db.basket(row)) << "row " << row;
  }
}

TEST(BinaryIoTest, EmptyBasketsAndEmptyDatabase) {
  TransactionDatabase db(5);
  ASSERT_TRUE(db.AddBasket({}).ok());
  ASSERT_TRUE(db.AddBasket({4}).ok());
  ASSERT_TRUE(db.AddBasket({}).ok());
  auto decoded = DecodeBinaryTransactions(EncodeBinaryTransactions(db));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_baskets(), 3u);
  EXPECT_TRUE(decoded->basket(0).empty());
  EXPECT_EQ(decoded->basket(1), (std::vector<ItemId>{4}));

  TransactionDatabase empty(7);
  auto decoded_empty =
      DecodeBinaryTransactions(EncodeBinaryTransactions(empty));
  ASSERT_TRUE(decoded_empty.ok());
  EXPECT_EQ(decoded_empty->num_baskets(), 0u);
  EXPECT_EQ(decoded_empty->num_items(), 7u);
}

TEST(BinaryIoTest, CompactVersusText) {
  auto db = corrmine::testing::RandomIndependentDatabase(1000, 300, 3);
  std::string binary = EncodeBinaryTransactions(db);
  // Text encoding size estimate: write to a string via the text writer's
  // format (ids + separators ~ 4+ bytes per occurrence on this id range).
  size_t text_estimate = 0;
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    for (ItemId item : db.basket(row)) {
      text_estimate += std::to_string(item).size() + 1;
    }
    ++text_estimate;
  }
  EXPECT_LT(binary.size(), text_estimate / 2)
      << "binary " << binary.size() << " vs text ~" << text_estimate;
}

TEST(BinaryIoTest, FileRoundTripAndSniffing) {
  auto db = corrmine::testing::RandomIndependentDatabase(10, 100, 5);
  std::string path = ::testing::TempDir() + "/corrmine_binary_test.bin";
  ASSERT_TRUE(WriteBinaryTransactionFile(db, path).ok());
  EXPECT_TRUE(LooksLikeBinaryTransactionFile(path));
  auto loaded = ReadBinaryTransactionFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_baskets(), db.num_baskets());
  std::remove(path.c_str());

  std::string text_path = ::testing::TempDir() + "/corrmine_text_test.txt";
  ASSERT_TRUE(WriteTransactionFile(db, text_path).ok());
  EXPECT_FALSE(LooksLikeBinaryTransactionFile(text_path));
  std::remove(text_path.c_str());
  EXPECT_FALSE(LooksLikeBinaryTransactionFile("/nonexistent/file.bin"));
}

TEST(BinaryIoTest, CorruptionDetected) {
  auto db = corrmine::testing::RandomIndependentDatabase(10, 50, 1);
  std::string bytes = EncodeBinaryTransactions(db);
  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_TRUE(DecodeBinaryTransactions(bad_magic).status().IsCorruption());
  // Truncation at any point must error, not crash or mis-decode silently.
  for (size_t cut : {size_t{2}, size_t{5}, bytes.size() / 2,
                     bytes.size() - 1}) {
    auto decoded = DecodeBinaryTransactions(bytes.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
  // Trailing garbage.
  EXPECT_TRUE(
      DecodeBinaryTransactions(bytes + "x").status().IsCorruption());
}

TEST(BinaryIoTest, MaxItemIdsRoundTrip) {
  // Item ids at the top of a large id space stress the varint coder's
  // multi-byte path (deltas spanning several LEB128 groups).
  const ItemId num_items = ItemId{1} << 20;
  TransactionDatabase db(num_items);
  ASSERT_TRUE(db.AddBasket({0, num_items - 1}).ok());
  ASSERT_TRUE(db.AddBasket({num_items - 1}).ok());
  ASSERT_TRUE(db.AddBasket({}).ok());
  ASSERT_TRUE(db.AddBasket({num_items / 2, num_items - 2, num_items - 1})
                  .ok());
  auto decoded = DecodeBinaryTransactions(EncodeBinaryTransactions(db));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_items(), num_items);
  ASSERT_EQ(decoded->num_baskets(), db.num_baskets());
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    EXPECT_EQ(decoded->basket(row), db.basket(row)) << "row " << row;
  }
}

TEST(BinaryIoTest, TruncatedFileReturnsStatusNotCrash) {
  auto db = corrmine::testing::RandomIndependentDatabase(15, 200, 23);
  std::string bytes = EncodeBinaryTransactions(db);
  std::string path = ::testing::TempDir() + "/corrmine_truncated.bin";
  for (size_t cut : {size_t{1}, size_t{3}, bytes.size() / 3,
                     bytes.size() - 1}) {
    {
      std::ofstream out(path, std::ios::binary);
      out << bytes.substr(0, cut);
    }
    auto loaded = ReadBinaryTransactionFile(path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_TRUE(loaded.status().IsCorruption()) << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, StreamingDecodeMatchesMaterialized) {
  auto db = corrmine::testing::RandomIndependentDatabase(20, 300, 31);
  std::string bytes = EncodeBinaryTransactions(db);

  ItemId num_items = 0;
  std::vector<std::vector<ItemId>> streamed;
  auto status = DecodeBinaryTransactionsInto(
      bytes, &num_items, [&](std::vector<ItemId> basket) -> Status {
        streamed.push_back(std::move(basket));
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(num_items, db.num_items());
  ASSERT_EQ(streamed.size(), db.num_baskets());
  for (size_t row = 0; row < db.num_baskets(); ++row) {
    EXPECT_EQ(streamed[row], db.basket(row)) << "row " << row;
  }

  // A sink error aborts the decode and propagates unchanged.
  size_t seen = 0;
  auto aborted = DecodeBinaryTransactionsInto(
      bytes, &num_items, [&](std::vector<ItemId>) -> Status {
        if (++seen == 3) return Status::Internal("sink full");
        return Status::OK();
      });
  EXPECT_FALSE(aborted.ok());
  EXPECT_EQ(seen, 3u);
}

TEST(BinaryIoTest, RejectsOutOfRangeItems) {
  // Hand-craft: magic, num_items=2, num_baskets=1, size=1, delta=7 (>= 2).
  std::string bytes = "CMB1";
  bytes += static_cast<char>(2);
  bytes += static_cast<char>(1);
  bytes += static_cast<char>(1);
  bytes += static_cast<char>(7);
  EXPECT_TRUE(DecodeBinaryTransactions(bytes).status().IsCorruption());
}

// --- Reader agreement ----------------------------------------------------

using Rows = std::vector<std::vector<ItemId>>;

/// What one reader made of a file.
struct ReaderOutcome {
  std::string reader;
  Status status;
  ItemId num_items = 0;
  Rows rows;
  uint64_t bytes_consumed = 0;
};

std::vector<ReaderOutcome> ReadEveryWay(const std::string& path) {
  std::vector<ReaderOutcome> outcomes;
  {
    ReaderOutcome out;
    out.reader = "LoadTransactionFile";
    auto db = LoadTransactionFile(path);
    out.status = db.status();
    if (db.ok()) {
      out.num_items = db->num_items();
      for (size_t row = 0; row < db->num_baskets(); ++row) {
        out.rows.push_back(db->basket(row));
      }
    }
    outcomes.push_back(std::move(out));
  }
  for (size_t shards : {size_t{1}, size_t{3}}) {
    ReaderOutcome out;
    out.reader = "LoadTransactionFileSharded K=" + std::to_string(shards);
    auto db = LoadTransactionFileSharded(path, shards);
    out.status = db.status();
    if (db.ok()) {
      out.num_items = db->num_items();
      for (size_t row = 0; row < db->num_baskets(); ++row) {
        out.rows.push_back(db->basket(row));
      }
    }
    outcomes.push_back(std::move(out));
  }
  for (int shards : {1, 3}) {
    ReaderOutcome out;
    out.reader = "MiningSession::Open K=" + std::to_string(shards);
    SessionOptions options;
    options.num_shards = shards;
    auto session = MiningSession::Open(path, options);
    out.status = session.status();
    if (session.ok()) {
      const TransactionDatabase db = session->Flatten();
      out.num_items = db.num_items();
      for (size_t row = 0; row < db.num_baskets(); ++row) {
        out.rows.push_back(db.basket(row));
      }
    }
    outcomes.push_back(std::move(out));
  }
  ReaderOutcome out;
  out.reader = "StreamTransactionFile";
  out.status = StreamTransactionFile(
      path, &out.num_items,
      [&](std::vector<ItemId> basket) {
        out.rows.push_back(std::move(basket));
        return Status::OK();
      },
      &out.bytes_consumed);
  outcomes.push_back(std::move(out));
  return outcomes;
}

/// Empty when every reader agrees on `bytes`: all OK with the same item
/// space, the same rows and a stream that consumed every byte, or all
/// Corruption. Otherwise says who disagrees.
std::string ReaderDisagreement(const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/corrmine_readers.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const std::vector<ReaderOutcome> outcomes = ReadEveryWay(path);
  std::remove(path.c_str());
  const ReaderOutcome& first = outcomes.front();
  std::ostringstream why;
  for (const ReaderOutcome& out : outcomes) {
    if (!out.status.ok() && !out.status.IsCorruption()) {
      why << out.reader << " is not Corruption: " << out.status.ToString()
          << "; ";
    }
    if (out.status.ok() != first.status.ok()) {
      why << out.reader << " says " << out.status.ToString() << " but "
          << first.reader << " says " << first.status.ToString() << "; ";
    } else if (out.status.ok() &&
               (out.num_items != first.num_items || out.rows != first.rows)) {
      why << out.reader << " decoded other rows or items than "
          << first.reader << "; ";
    }
  }
  const ReaderOutcome& stream = outcomes.back();
  if (stream.status.ok() && stream.bytes_consumed != bytes.size()) {
    why << "stream consumed " << stream.bytes_consumed << " of "
        << bytes.size() << " bytes; ";
  }
  return why.str();
}

/// CMB1, item space 4, one basket whose size is a ten-byte varint — low
/// bits 2, tenth byte 0x02 carrying bit 64 — then deltas 1, 1.
std::string OverlongVarintFile() {
  std::string bytes = "CMB1";
  bytes += '\x04';
  bytes += '\x01';
  bytes += '\x82';
  bytes += std::string(8, '\x80');
  bytes += '\x02';
  bytes += '\x01';
  bytes += '\x01';
  return bytes;
}

TEST(BinaryIoTest, OverlongVarintIsCorruptionForEveryReader) {
  const std::string bytes = OverlongVarintFile();
  ASSERT_EQ(bytes.size(), 18u);
  EXPECT_TRUE(DecodeBinaryTransactions(bytes).status().IsCorruption());
  const std::string path = ::testing::TempDir() + "/corrmine_overlong.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  EXPECT_TRUE(LoadTransactionFile(path).status().IsCorruption());
  ItemId num_items = 0;
  const Status streamed = StreamTransactionFile(
      path, &num_items, [](std::vector<ItemId>) { return Status::OK(); });
  EXPECT_TRUE(streamed.IsCorruption()) << streamed.ToString();
  std::remove(path.c_str());
  EXPECT_EQ(ReaderDisagreement(bytes), "");
}

TEST(BinaryIoTest, OpenRejectsABasketCountBeyondTheBytesLeft) {
  // Item space 4 and a claimed 2^50 baskets, followed by three one-item
  // baskets. Every basket record takes at least one byte, so the count is
  // Corruption before it sizes a bitmap: 2^50 rows would take 128 TiB per
  // item.
  std::string bytes = "CMB1";
  bytes += '\x04';
  AppendVarint(&bytes, uint64_t{1} << 50);
  for (const char id : {'\x00', '\x01', '\x02'}) {
    bytes += '\x01';
    bytes += id;
  }
  const std::string path = ::testing::TempDir() + "/corrmine_huge_count.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  for (int shards : {1, 3}) {
    SessionOptions options;
    options.num_shards = shards;
    const Status status = MiningSession::Open(path, options).status();
    EXPECT_TRUE(status.IsCorruption()) << "K=" << shards << ": "
                                       << status.ToString();
  }
  std::remove(path.c_str());
  EXPECT_EQ(ReaderDisagreement(bytes), "");
}

TEST(BinaryIoTest, ReadersAgreeOnEveryFileOfASeededCorpus) {
  // Valid files of 1-3 segments with growing item spaces; their baskets
  // straddle the stream's 64 KiB window edges.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::string bytes;
    const size_t segments = 1 + seed % 3;
    for (size_t segment = 0; segment < segments; ++segment) {
      const auto num_items = static_cast<ItemId>(600 + 500 * segment + seed);
      bytes += EncodeBinaryTransactions(
          corrmine::testing::RandomIndependentDatabase(
              num_items, 150 + 50 * seed, seed * 10 + segment));
    }
    ASSERT_GT(bytes.size(), size_t{64 * 1024}) << "seed " << seed;
    EXPECT_EQ(ReaderDisagreement(bytes), "") << "seed " << seed;
  }

  // One basket longer than the window: 50000 two-byte deltas, between
  // short baskets.
  {
    TransactionDatabase db(ItemId{50000} * 130 + 1);
    ASSERT_TRUE(db.AddBasket({1, 2}).ok());
    std::vector<ItemId> wide;
    for (ItemId i = 0; i < 50000; ++i) wide.push_back(i * 130);
    ASSERT_TRUE(db.AddBasket(wide).ok());
    ASSERT_TRUE(db.AddBasket({7}).ok());
    const std::string bytes = EncodeBinaryTransactions(db);
    ASSERT_GT(bytes.size(), size_t{100 * 1000});
    EXPECT_EQ(ReaderDisagreement(bytes), "");
  }

  // Every truncation point and a single-byte corruption at every offset
  // past the first magic of a small two-segment file.
  const std::string small =
      EncodeBinaryTransactions(
          corrmine::testing::RandomIndependentDatabase(6, 8, 41)) +
      EncodeBinaryTransactions(
          corrmine::testing::RandomIndependentDatabase(9, 6, 42));
  EXPECT_EQ(ReaderDisagreement(small), "");
  for (size_t cut = 4; cut < small.size(); ++cut) {
    EXPECT_EQ(ReaderDisagreement(small.substr(0, cut)), "") << "cut " << cut;
  }
  for (size_t offset = 4; offset < small.size(); ++offset) {
    for (const unsigned char value :
         {0x00, 0x01, 0x05, 0x7f, 0x80, 0xff,
          static_cast<unsigned char>(small[offset]) ^ 0x01,
          static_cast<unsigned char>(small[offset]) ^ 0x80}) {
      std::string corrupt = small;
      corrupt[offset] = static_cast<char>(value);
      EXPECT_EQ(ReaderDisagreement(corrupt), "")
          << "offset " << offset << " value " << static_cast<int>(value);
    }
  }

  EXPECT_EQ(ReaderDisagreement(OverlongVarintFile()), "");
}

/// A copy of `bytes` in a heap block of exactly that size, so that under
/// AddressSanitizer a read one byte past it is reported.
std::unique_ptr<char[]> ExactCopy(std::string_view bytes) {
  auto copy = std::make_unique<char[]>(bytes.size());
  std::memcpy(copy.get(), bytes.data(), bytes.size());
  return copy;
}

TEST(Cmb1DecoderTest, ShortRangesConsumeNothingAndNeverReadPastTheEnd) {
  // Every record is offered in ranges that grow one byte at a time: each
  // short range must report kNeedMore without moving the cursor, and the
  // first long enough one must decode the record.
  // The wide basket mixes one- and two-byte deltas, so a range can end
  // inside the delta loop.
  TransactionDatabase wide(100000);
  std::vector<ItemId> row;
  for (ItemId i = 0; i < 100000; i += row.size() % 2 == 0 ? 7 : 300) {
    row.push_back(i);
  }
  ASSERT_TRUE(wide.AddBasket(row).ok());
  ASSERT_TRUE(wide.AddBasket({}).ok());
  const auto first = corrmine::testing::RandomIndependentDatabase(6, 8, 41);
  const std::string bytes = EncodeBinaryTransactions(first) +
                            EncodeBinaryTransactions(wide);
  Rows expected;
  for (size_t b = 0; b < first.num_baskets(); ++b) {
    expected.push_back(first.basket(b));
  }
  expected.push_back(row);
  expected.push_back({});

  Cmb1Decoder decoder;
  Rows decoded;
  std::vector<ItemId> basket;
  size_t pos = 0;
  while (pos < bytes.size()) {
    for (size_t len = 0;; ++len) {
      ASSERT_LE(pos + len, bytes.size()) << "record at " << pos;
      const auto range = ExactCopy(std::string_view(bytes).substr(pos, len));
      const char* cursor = range.get();
      const Cmb1Decoder::Step step =
          decoder.Next(&cursor, range.get() + len, &basket);
      ASSERT_NE(step, Cmb1Decoder::Step::kCorrupt)
          << decoder.error().ToString();
      if (step == Cmb1Decoder::Step::kNeedMore) {
        ASSERT_EQ(cursor, range.get());
        continue;
      }
      if (step == Cmb1Decoder::Step::kBasket) decoded.push_back(basket);
      pos += static_cast<size_t>(cursor - range.get());
      break;
    }
  }
  EXPECT_TRUE(decoder.Finish(0).ok());
  EXPECT_EQ(decoder.segments(), 2u);
  EXPECT_EQ(decoder.max_items(), 100000u);
  EXPECT_EQ(decoded, expected);

  // Truncated and byte-corrupted copies, each in an exactly sized block.
  const std::string small =
      bytes.substr(0, EncodeBinaryTransactions(first).size());
  auto decode_exact = [](std::string_view input) {
    const auto copy = ExactCopy(input);
    Cmb1Decoder any;
    return DecodeCmb1(std::string_view(copy.get(), input.size()),
                      /*single_segment=*/false, &any,
                      [](size_t) { return Status::OK(); },
                      [](std::vector<ItemId>&) { return Status::OK(); });
  };
  for (size_t cut = 0; cut < small.size(); ++cut) {
    EXPECT_TRUE(decode_exact(small.substr(0, cut)).IsCorruption())
        << "cut " << cut;
  }
  for (size_t offset = 0; offset < small.size(); ++offset) {
    for (const unsigned char value : {0x00, 0x7f, 0x80, 0xff}) {
      std::string corrupt = small;
      corrupt[offset] = static_cast<char>(value);
      const Status status = decode_exact(corrupt);
      EXPECT_TRUE(status.ok() || status.IsCorruption()) << status.ToString();
    }
  }
}

TEST(BinaryIoTest, AddBasketStillCanonicalizesUnsortedRows) {
  TransactionDatabase db(10);
  ASSERT_TRUE(db.AddBasket({5, 1, 5, 3}).ok());
  ASSERT_TRUE(db.AddBasket({2, 2, 4}).ok());
  ASSERT_TRUE(db.AddBasket({0, 6, 9}).ok());
  EXPECT_EQ(db.basket(0), (std::vector<ItemId>{1, 3, 5}));
  EXPECT_EQ(db.basket(1), (std::vector<ItemId>{2, 4}));
  EXPECT_EQ(db.basket(2), (std::vector<ItemId>{0, 6, 9}));
  EXPECT_EQ(db.ItemCount(5), 1u);
  EXPECT_EQ(db.ItemCount(2), 1u);
  EXPECT_EQ(db.TotalItemOccurrences(), 8u);
  // Sorted rows are still range-checked.
  EXPECT_TRUE(db.AddBasket({3, 10}).IsOutOfRange());
  EXPECT_TRUE(db.AddBasket({10, 3}).IsOutOfRange());
}

TEST(BinaryIoTest, LoadingADirectoryReturnsAStatus) {
  const std::string dir = ::testing::TempDir();
  EXPECT_FALSE(ReadFileToString(dir).ok());
  EXPECT_FALSE(LoadTransactionFile(dir).ok());
  EXPECT_FALSE(LoadTransactionFileSharded(dir, 2).ok());
  EXPECT_FALSE(ReadTransactionFile(dir).ok());
  ItemId num_items = 0;
  EXPECT_FALSE(StreamTransactionFile(dir, &num_items, [](std::vector<ItemId>) {
                 return Status::OK();
               }).ok());
}

}  // namespace
}  // namespace corrmine::io
