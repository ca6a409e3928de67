#ifndef VSTORE_EXEC_HASH_JOIN_H_
#define VSTORE_EXEC_HASH_JOIN_H_

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/bloom_filter.h"
#include "exec/hash_table.h"
#include "exec/operator.h"

namespace vstore {

enum class JoinType {
  kInner,
  kLeftOuter,  // all probe rows; unmatched ones null-extended
  kLeftSemi,   // probe rows with at least one match (probe columns only)
  kLeftAnti,   // probe rows with no match (probe columns only)
};

const char* JoinTypeName(JoinType type);

// True when the join's output carries build-side columns (inner/outer).
inline bool JoinEmitsBuildColumns(JoinType type) {
  return type == JoinType::kInner || type == JoinType::kLeftOuter;
}

// Output schema of a batch hash join: probe columns, then (for inner/outer
// joins) the build columns marked nullable for null-extension.
Schema HashJoinOutputSchema(const Schema& probe, const Schema& build,
                            JoinType type);

struct HashJoinOptions {
  JoinType join_type = JoinType::kInner;
  std::vector<int> probe_keys;  // column indices in the probe schema
  std::vector<int> build_keys;  // column indices in the build schema
  // If non-null, the join Init()s and populates this externally-owned
  // Bloom filter over the build keys during its build phase. The planner
  // hands the same object to the probe-side scan (which only reads it
  // after Open(), i.e. after the build completed). Only valid for
  // inner/semi joins (outer/anti joins must see every probe row).
  BloomFilter* bloom_target = nullptr;
  int num_partitions = 16;  // power of two
};

// Hash-partitioned build side of a batch hash join: the one build routine
// behind both the serial HashJoinOperator (a single inserting thread) and
// the parallel SharedHashJoinBuild (one inserting thread per build
// fragment). InsertBatch takes a whole build batch: it hashes the keys
// with HashKeysBatch (the probe side's kernel, so both sides hash through
// the same code), drops inactive and NULL-key rows, counting-sorts the
// survivors by partition, and appends each partition's run under one
// acquisition of that partition's lock — or writes the run to the
// partition's spill file once the partition has spilled. Byte totals, the
// operator budget and query pressure are updated and polled once per
// batch, so the resident build overshoots its budget by at most one batch
// before the largest partitions are flushed to disk (spill_mu_ serializes
// victim selection, so one flush runs at a time).
class JoinBuildTable {
 public:
  struct Partition {
    std::mutex mu;  // guards all mutable fields during build + probe spill
    std::unique_ptr<Arena> arena;
    std::vector<uint8_t*> rows;  // entry pointers (header + payload)
    // Mirror of arena bytes, readable without the partition lock for spill
    // victim selection.
    std::atomic<int64_t> bytes{0};
    bool spilled = false;
    std::FILE* build_file = nullptr;
    std::FILE* probe_file = nullptr;
    int64_t build_rows_on_disk = 0;
    int64_t probe_rows_on_disk = 0;
    // Built by Finalize for resident partitions; read-only from then on.
    std::unique_ptr<SerializedRowHashTable> table;
  };

  // Scratch and counters of one inserting thread, reused across batches.
  struct Inserter {
    std::vector<uint64_t> hashes;
    std::vector<uint32_t> kept;       // surviving rows, in batch order
    std::vector<uint32_t> runs;       // kept rows grouped by partition
    std::vector<uint32_t> run_start;  // per-partition offsets into runs
    std::vector<uint32_t> run_fill;   // scatter cursors
    std::vector<size_t> pending;      // partitions whose run is not in yet
    int64_t rows = 0;          // build rows kept (non-null keys)
    int64_t lock_wait_ns = 0;  // contended partition-lock waits
  };

  // `schema`, `format` and `options` must outlive the table. Arenas and
  // tables charge `mem`; `query_tracker` supplies query-level pressure
  // (either may be null). memory_budget <= 0 means unlimited.
  JoinBuildTable(const Schema& schema, const RowFormat& format,
                 const HashJoinOptions& options, int64_t memory_budget,
                 MemoryTracker* mem, MemoryTracker* query_tracker);
  ~JoinBuildTable();
  VSTORE_DISALLOW_COPY_AND_ASSIGN(JoinBuildTable);

  // Thread-safe. Spill counters go to ctx->stats.
  Status InsertBatch(const Batch& batch, Inserter* ins, ExecContext* ctx);
  // After all inserts: builds the chained tables of partitions stripe,
  // stripe + stride, ... and adds the key hash of each of their build
  // rows, resident or spilled, to `bloom` when non-null. Distinct stripes
  // may run concurrently.
  Status Finalize(int stripe, int stride, BloomFilter* bloom);
  // Thread-safe append of a probe row to spilled partition `p`.
  Status SpillProbeRow(int p, const Schema& probe_schema,
                       const std::vector<Value>& row, ExecContext* ctx);

  int PartitionOf(uint64_t hash) const {
    return static_cast<int>(hash >> partition_shift_);
  }
  Partition& partition(int p) { return partitions_[static_cast<size_t>(p)]; }
  const Schema& schema() const { return schema_; }

  int64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  int64_t spill_bytes() const {
    return spill_bytes_.load(std::memory_order_relaxed);
  }
  int64_t spill_partitions() const {
    return spill_partitions_.load(std::memory_order_relaxed);
  }
  int64_t build_rows_spilled() const {
    return build_rows_spilled_.load(std::memory_order_relaxed);
  }

 private:
  // Flushes the largest resident partition while the build is over its
  // budget; `query_pressure` sheds at least one (the query-level tracker
  // crossed its budget, whatever the local budget says).
  Status MaybeSpill(ExecContext* ctx, bool query_pressure);
  // Appends (or spills) the inserter's run for partition `p`, whose lock
  // the caller holds; adds the partition's arena growth to `grew`.
  Status AppendRunLocked(const Batch& batch, const Inserter& ins, size_t p,
                         ExecContext* ctx, int64_t* grew);
  Status SpillPartitionLocked(Partition* part, ExecContext* ctx);
  // WriteSpillRow plus spill-byte accounting (per table and global).
  Status SpillRowLocked(std::FILE* f, const Schema& schema,
                        const std::vector<Value>& row);
  // Consumes the budget-crossing edge / polls the query tracker.
  bool QueryMemoryPressure() const;

  const Schema& schema_;
  const RowFormat& format_;
  const HashJoinOptions& options_;
  const int64_t memory_budget_;
  const int partition_shift_;
  MemoryTracker* mem_;
  MemoryTracker* query_tracker_;
  mutable std::atomic<bool> pressure_{false};
  int pressure_listener_ = 0;

  std::vector<Partition> partitions_;
  std::atomic<int64_t> total_bytes_{0};
  std::atomic<int64_t> peak_bytes_{0};
  std::atomic<int64_t> spill_bytes_{0};
  std::atomic<int64_t> spill_partitions_{0};
  std::atomic<int64_t> build_rows_spilled_{0};
  std::mutex spill_mu_;  // serializes victim selection + flush
};

// Probe side of a batch hash join: the one probe loop and grace drain
// behind both the serial HashJoinOperator and the parallel probe fragments
// (HashJoinProbeOperator). Streams probe batches against a finalized
// JoinBuildTable; rows whose partition spilled are appended to that
// partition's probe file instead. Once the probe input is exhausted and the
// prober owns the drain, it joins the spilled partition pairs one partition
// at a time: the build rows are reloaded into prober-local storage that is
// freed before the next partition loads (the table's partitions are never
// written after Finalize), and the spilled probe rows are read back in
// batches that run through the same per-row loop as the in-memory probe.
// A drain therefore holds at most one spilled partition in memory; a
// spilled partition is assumed to fit there (one level of partitioning).
class JoinProber {
 public:
  // `probe`, the schemas, `build_format` and `options` must outlive the
  // prober. `owns_drain` is called once, when the probe input is
  // exhausted, and says whether this prober drains the spilled partitions
  // (all writers of the partitions' probe files must be done by then).
  JoinProber(BatchOperator* probe, const Schema& probe_schema,
             const Schema& output_schema, const RowFormat& build_format,
             const HashJoinOptions& options, ExecContext* ctx,
             std::function<bool()> owns_drain);
  VSTORE_DISALLOW_COPY_AND_ASSIGN(JoinProber);

  // Starts a probe of `table`, which must be finalized and outlive the
  // probe; resets the counters. The drain's reload storage charges
  // `drain_mem` (may be null). The caller opens the probe input.
  void Open(JoinBuildTable* table, MemoryTracker* drain_mem);
  // Next output batch, or null at the end.
  Result<Batch*> Next();
  // Frees the output batch and drain storage; the counters stay readable.
  void Close();

  // Probe input rows (spilled ones included, drained ones not recounted).
  int64_t probe_rows() const { return probe_rows_; }
  int64_t probe_rows_spilled() const { return probe_rows_spilled_; }

 private:
  // Joins probe_batch_ from probe_row_ on; returns true when the output
  // filled first (the cursor then resumes mid-row on the next call).
  Result<bool> JoinRows();
  // Emits probe row probe_row_ joined to `build_row` (null-extended or
  // probe-only when null).
  void Emit(const uint8_t* build_row);
  // Points probe_batch_ at the next batch of spilled probe rows, loading
  // spilled partitions as earlier ones run out; false when none is left.
  Result<bool> NextDrainBatch();
  Status LoadDrainPartition(JoinBuildTable::Partition* part);
  void SetProbeBatch(Batch* batch);

  BatchOperator* probe_;
  const Schema& probe_schema_;
  const Schema& output_schema_;
  const RowFormat& build_format_;
  const HashJoinOptions& options_;
  ExecContext* ctx_;
  std::function<bool()> owns_drain_;

  JoinBuildTable* table_ = nullptr;
  MemoryTracker* drain_mem_ = nullptr;
  std::unique_ptr<Batch> output_;
  int64_t out_rows_ = 0;

  enum class Phase { kProbe, kDrain, kDone };
  Phase phase_ = Phase::kProbe;
  Batch* probe_batch_ = nullptr;
  int64_t probe_row_ = 0;
  std::vector<uint64_t> hashes_;
  const uint8_t* chain_ = nullptr;  // resume point within a bucket chain
  bool row_matched_ = false;        // for outer/semi/anti bookkeeping

  // Drain state: the next partition to drain (its build rows reloaded when
  // drain_loaded_), and a batch of its spilled probe rows.
  int drain_partition_ = 0;
  bool drain_loaded_ = false;
  std::unique_ptr<Arena> drain_arena_;
  std::unique_ptr<SerializedRowHashTable> drain_table_;
  std::unique_ptr<Batch> drain_batch_;

  int64_t probe_rows_ = 0;
  int64_t probe_rows_spilled_ = 0;
};

// Batch-mode hash join (paper §5.3): consumes the build side into a hash
// table of serialized rows, optionally publishing a Bloom filter for
// pushdown into the probe-side scan, then streams probe batches against it.
//
// Memory-bounded: build rows go into a JoinBuildTable (this join is its
// single-inserter case); when the in-memory size exceeds the context's
// operator_memory_budget, whole partitions spill to temp files and the
// matching probe rows are spilled too. The JoinProber then drains the
// partition pairs one at a time after the probe input is exhausted (grace
// hash join), so the drain holds one spilled partition in memory at once.
//
// Output schema: probe columns followed by build columns (probe columns
// only for semi/anti joins).
class HashJoinOperator final : public BatchOperator {
 public:
  using Options = HashJoinOptions;

  HashJoinOperator(BatchOperatorPtr probe, BatchOperatorPtr build,
                   Options options, ExecContext* ctx);
  ~HashJoinOperator() override;

  // Non-null iff options.bloom_target was set; populated once Open() returns.
  const BloomFilter* bloom_filter() const { return bloom_; }

  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override;

 protected:
  Status OpenImpl() override;
  Result<Batch*> NextImpl() override { return prober_.Next(); }
  void CloseImpl() override;
  std::vector<const BatchOperator*> ProfileInputs() const override {
    return {probe_.get(), build_.get()};
  }
  void AppendProfileCounters(OperatorProfile* node) const override;

 private:
  Status RunBuildPhase();

  BatchOperatorPtr probe_;
  BatchOperatorPtr build_;
  Options options_;
  ExecContext* ctx_;

  Schema output_schema_;
  RowFormat build_format_;

  BloomFilter* bloom_ = nullptr;  // not owned

  // Per-operator tracker under the query tracker (null when tracking is
  // off); partition arenas, tables and the drain's reload charge here.
  // Declared before table_ so the partitions release into a live tracker.
  std::unique_ptr<MemoryTracker> mem_;
  std::unique_ptr<JoinBuildTable> table_;  // one per Open()
  JoinProber prober_;

  // Per-operator profile counters mirroring the query-global ExecStats.
  int64_t build_rows_ = 0;
  int64_t build_ns_ = 0;        // build input drained into partitions
  int64_t table_build_ns_ = 0;  // chained tables + Bloom filter
  int64_t build_rows_spilled_ = 0;
  int64_t spill_partitions_ = 0;
};

}  // namespace vstore

#endif  // VSTORE_EXEC_HASH_JOIN_H_
