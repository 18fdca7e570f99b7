#ifndef CORRMINE_MINING_PARTITION_H_
#define CORRMINE_MINING_PARTITION_H_

#include <cstdint>
#include <string>

#include "common/status_or.h"
#include "core/chi_squared_miner.h"
#include "itemset/transaction_database.h"

namespace corrmine {

/// Options of the out-of-core correlation miner (DESIGN.md §12).
struct OutOfCoreMinerOptions {
  /// The mining configuration the walk runs under — the result is
  /// byte-identical to MineCorrelations(in-memory provider, miner) on any
  /// size where both run.
  MinerOptions miner;

  /// Target resident-set budget. Partitions are sized so the spill and
  /// the sweeps each stay well inside it; enforced observationally against
  /// mem.peak_rss_bytes (benchgate: peak <= 1.1x budget).
  uint64_t memory_budget_bytes = uint64_t{256} << 20;

  /// Bytes of basket rows buffered before a partition closes (--partition
  /// -budget), charged 4 bytes per item occurrence. 0 derives
  /// memory_budget_bytes / 6 floored at 1 MiB: the reader holds its rows
  /// as 16-bit block offsets, so the filling partition and the one closing
  /// on the pool together take about this much; the close adds its encoded
  /// payload, and a sweep needs headroom to count several partitions at
  /// once. Explicit values are taken verbatim (no floor, so tests can
  /// force many tiny partitions) but must not exceed memory_budget_bytes;
  /// setting it equal to the memory budget forces admitted = 1, i.e.
  /// sweeps that count one partition at a time.
  uint64_t partition_budget_bytes = 0;

  /// Directory for the CCS partition shard files (created if missing).
  /// Empty derives "<input>.spill" next to the input file.
  std::string spill_dir;

  /// Leave the partition files on disk for inspection.
  bool keep_spill = false;
};

/// Accounting of one out-of-core run (also published as "outofcore.*"
/// counters and the mem.memory_budget_bytes gauge). The field names
/// predate the per-level sweep and are kept for existing readers.
struct OutOfCoreStats {
  uint64_t num_baskets = 0;
  ItemId num_items = 0;
  /// RAM-sized CCS partitions the spill wrote.
  uint64_t partitions = 0;
  /// Raw (encoding-0 equivalent) payload bytes across partitions — what a
  /// v1 spill of the same columns would cost.
  uint64_t spilled_payload_bytes = 0;
  /// Encoded payload bytes actually written (v2 min-byte rule); the
  /// column.spill_ratio_x1000 gauge is encoded/raw.
  uint64_t spilled_encoded_bytes = 0;
  /// Sweep width: partitions counted concurrently in a sweep (1 = one at
  /// a time, the serial mode).
  int admitted = 1;
  /// Wall seconds of the spill.
  double spill_pass1_seconds = 0.0;
  /// Wall seconds inside sweeps, summed over the levels.
  double pass2_seconds = 0.0;
  /// Queries the sweeps counted: every candidate of every level, one
  /// count each.
  uint64_t candidate_queries = 0;
  /// Queries answered from the spill's item counts (one per item).
  uint64_t memo_hits = 0;
  /// Queries the item counts could not answer: candidate_queries again.
  uint64_t memo_misses = 0;
};

/// Level-synchronous correlation mining over a dataset that need not fit
/// in memory:
///
///   spill — stream `path` once, cutting RAM-sized horizontal partitions
///           and counting every item exactly; each full partition closes
///           on the pool behind the reader (one close in flight), its
///           hybrid counting columns built and streamed one at a time into
///           an mmap-backed CCS v2 shard file;
///   walk  — run MineCorrelations (the Figure 1 walk) over a provider
///           that answers single items from those counts and each level's
///           candidate batch with one sweep over the partition files: up
///           to `admitted` partitions are mapped, counted and unmapped at
///           a time, and the per-slot partial sums reduce in slot order.
///
/// The walk sees exact counts for exactly the questions the in-memory walk
/// asks, so rules, level stats and the frontier are byte-identical to the
/// in-memory miner by construction. The sweep width is
/// clamp(memory budget / (2 x partition budget), 1, threads); at
/// admitted = 1 partitions are counted strictly one at a time and the
/// high-water mark stays near base + one partition. A partition file that
/// fails to open or map during a sweep fails the call with that Status.
/// On any error, spill files are removed unless keep_spill is set —
/// failed runs leave the spill dir empty.
StatusOr<MiningResult> MineCorrelationsOutOfCore(
    const std::string& path, const OutOfCoreMinerOptions& options,
    OutOfCoreStats* stats = nullptr);

}  // namespace corrmine

#endif  // CORRMINE_MINING_PARTITION_H_
