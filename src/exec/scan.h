#ifndef VSTORE_EXEC_SCAN_H_
#define VSTORE_EXEC_SCAN_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "exec/bloom_filter.h"
#include "exec/operator.h"
#include "storage/column_store.h"
#include "types/compare_op.h"

namespace vstore {

// A sargable predicate pushed into the scan: `column OP value` with the
// column given as an index into the table schema. Used both for segment
// elimination (min/max metadata) and for vectorized row filtering during
// decode.
struct ScanPredicate {
  int column;
  CompareOp op;
  Value value;
};

// A bitmap (Bloom) filter pushed from a hash join build side onto one of
// the scan's columns (paper §5.2). The filter outlives the scan.
struct BloomFilterSpec {
  int column;
  const BloomFilter* filter;
};

// The shared work cursor of one column-store scan over one pinned table
// version (morsel-driven scheduling, Leis et al., SIGMOD 2014). Each
// compressed row group is cut into morsels of MorselRows(batch_size) rows,
// a whole number of batches, so only a group's last morsel can end in a
// short batch. After the compressed morsels come the delta stores, one
// morsel each. Every fragment of a parallel scan claims morsels from one
// instance, and each claim is one relaxed atomic fetch_add: a fragment
// that runs ahead simply claims more, so fragments finish together
// whatever the group sizes, and the useful degree is the morsel count, not
// the row-group count. A serial scan owns a private instance and sees the
// morsels in table order.
//
// A ScanMorsels serves one execution: once drained it stays drained. The
// executor lowers a fresh physical plan per query, so scans over a shared
// instance are never reopened (the SharedHashJoinBuild contract).
class ScanMorsels {
 public:
  struct Morsel {
    enum class Kind { kDone, kGroupSlice, kDeltaStore };
    Kind kind = Kind::kDone;
    // kGroupSlice: the row group. kDeltaStore: the delta store.
    int64_t index = 0;
    // kGroupSlice: rows [begin, end) of the group.
    int64_t begin = 0;
    int64_t end = 0;
  };

  ScanMorsels(TableSnapshot snapshot, bool include_deltas, int64_t batch_size);
  VSTORE_DISALLOW_COPY_AND_ASSIGN(ScanMorsels);

  // Rows per compressed morsel: about 16k, rounded to whole batches.
  static int64_t MorselRows(int64_t batch_size);

  // Hands out the next unclaimed morsel, or kDone. Thread-safe.
  Morsel Claim();

  // Compressed morsels (every group yields at least one, so even an empty
  // or fully deleted group is decided and counted once) plus delta stores.
  int64_t num_morsels() const { return num_morsels_; }
  const TableSnapshot& snapshot() const { return snapshot_; }

 private:
  TableSnapshot snapshot_;
  int64_t morsel_rows_;
  // group_first_morsel_[g] is group g's first morsel; the last entry is
  // the number of compressed morsels.
  std::vector<int64_t> group_first_morsel_;
  int64_t num_morsels_;
  std::atomic<int64_t> next_{0};
};

// Vectorized scan over a column store: claims morsels from a ScanMorsels
// (skipping groups eliminated by segment metadata), decodes only the
// needed columns batch by batch, masks deleted rows via the delete bitmap,
// applies pushed predicates and bitmap filters, then merges delta-store
// rows.
class ColumnStoreScanOperator final : public BatchOperator {
 public:
  struct Options {
    // Table column indices to output, in order. Empty = all columns.
    std::vector<int> projection;
    std::vector<ScanPredicate> predicates;
    std::vector<BloomFilterSpec> bloom_filters;
    // Scan delta stores after compressed groups. A shared `morsels` source
    // fixes this when it is built; the field is read only when the scan
    // builds its own.
    bool include_deltas = true;
    // Bernoulli row sampling (paper: sampling support for statistics
    // creation): each row qualifies with this probability, decided by a
    // deterministic per-row hash so repeated scans see the same sample.
    double sample_fraction = 1.0;
    uint64_t sample_seed = 0x5eed;
    // Morsel source to claim work from. The planner shares one among every
    // fragment of a parallel scan, so they all read one table version and
    // together cover it exactly once. When null the operator builds a
    // private source over its own snapshot at Open.
    std::shared_ptr<ScanMorsels> morsels;
    // Display label for profiles, usually the table name.
    std::string label;
  };

  ColumnStoreScanOperator(const ColumnStoreTable* table, Options options,
                          ExecContext* ctx);

  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override {
    return options_.label.empty() ? "ColumnStoreScan"
                                  : "ColumnStoreScan(" + options_.label + ")";
  }

 protected:
  Status OpenImpl() override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  void AppendProfileCounters(OperatorProfile* node) const override;

 private:
  // Claims the next morsel that has work: a group slice of a group that
  // survives segment elimination, or a delta store (loaded into
  // delta_rows_). Returns false when the source is drained.
  Result<bool> ClaimMorsel();
  // Segment elimination and the fully-deleted skip, decided per group.
  // Counted when `first_morsel`, so each group counts once across all
  // fragments sharing the source.
  bool GroupEliminated(int64_t group, bool first_morsel);
  // Fills output_ from the current group slice starting at offset_.
  Status FillFromGroup();
  // Fills output_ from the loaded delta store, claiming further stores
  // while the batch has room. Returns rows produced.
  Result<int64_t> FillFromDeltas();
  // Applies `pred` against decoded vector `cv`, ANDing into the active mask.
  void ApplyPredicate(const ScanPredicate& pred, const ColumnVector& cv,
                      Batch* batch) const;
  // Applies a string equality predicate directly on dictionary codes
  // (paper §5: predicate evaluation on compressed data) — the strings are
  // never materialized. `target_valid` is false when the value provably
  // does not occur in this segment.
  void ApplyCodePredicate(const ScanPredicate& pred, const uint64_t* codes,
                          const uint8_t* validity, bool target_valid,
                          uint64_t target_code, Batch* batch) const;
  void ApplyBloom(const BloomFilterSpec& spec, const ColumnVector& cv,
                  Batch* batch) const;
  // True if this predicate slot can be evaluated on dictionary codes
  // without materializing strings.
  bool SlotUsesCodeEval(size_t slot) const;

  const ColumnStoreTable* table_;
  Options options_;
  ExecContext* ctx_;
  Schema output_schema_;

  // Column decode plan: all distinct table columns we must decode, and for
  // each, where it lands (output batch column or scratch slot).
  std::vector<int> decode_columns_;     // table column indices
  std::vector<int> decode_to_output_;   // >=0: output column; -1: scratch
  std::vector<int> pred_decode_slot_;   // per predicate: index into decode_columns_
  std::vector<int> bloom_decode_slot_;  // per bloom spec
  // Slots needed to evaluate predicates/blooms; the rest are decoded
  // lazily, only for surviving rows (lazy materialization).
  std::vector<bool> early_slot_;

  // Morsel source and its pinned table version: the scan reads it
  // lock-free; concurrent DML and tuple-mover passes install successor
  // versions and never touch it.
  std::shared_ptr<ScanMorsels> morsels_;
  TableSnapshot snapshot_;
  std::unique_ptr<Batch> output_;
  std::vector<std::unique_ptr<ColumnVector>> scratch_;
  std::vector<uint64_t> code_scratch_;     // code-space predicate evaluation
  std::vector<uint8_t> validity_scratch_;
  // Per-row 0/1 verdicts from the SIMD compare-against-constant kernels,
  // ANDed into the active mask (mutable: ApplyPredicate is const).
  mutable std::vector<uint8_t> verdict_scratch_;

  int64_t group_ = 0;       // row group of the current slice
  int64_t offset_ = 0;      // next row within the group
  int64_t slice_end_ = 0;   // end of the current slice within the group
  bool in_group_ = false;   // currently inside a group slice
  // The last group GroupEliminated decided. One scan's claims rise
  // monotonically, so consecutive claims usually share a group.
  int64_t decided_group_ = -1;
  bool decided_eliminated_ = false;
  int64_t delta_index_ = 0; // current delta store
  std::vector<std::vector<Value>> delta_rows_;  // staging for current store
  int64_t delta_row_pos_ = 0;
  bool delta_loaded_ = false;

  // Per-operator profile counters mirroring the query-global ExecStats.
  // Mutable: ApplyBloom/ApplyPredicate are const helpers.
  int64_t rows_scanned_ = 0;
  int64_t delta_rows_scanned_ = 0;
  int64_t groups_scanned_ = 0;
  int64_t groups_eliminated_ = 0;
  mutable int64_t bloom_rows_dropped_ = 0;
};

}  // namespace vstore

#endif  // VSTORE_EXEC_SCAN_H_
