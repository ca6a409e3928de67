#ifndef VSTORE_EXEC_HASH_AGGREGATE_H_
#define VSTORE_EXEC_HASH_AGGREGATE_H_

#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/aggregate.h"
#include "exec/hash_table.h"
#include "exec/operator.h"

namespace vstore {

// Aggregation phases for parallel plans (paper §5.4/§6: partial batch
// aggregation below an exchange, final aggregation above it):
//  - kComplete: raw rows in, finalized results out (single-threaded plans).
//  - kPartial:  raw rows in, partial rows out — group keys followed by a
//               (value, count) pair per aggregate; exact to merge.
//  - kFinal:    partial rows in, finalized results out.
enum class AggPhase { kComplete, kPartial, kFinal };

// Batch-mode hash aggregation (paper §5.4). Groups are kept in a hash
// table of serialized keys with fixed-size accumulator state appended to
// each entry. When the state exceeds the context's operator_memory_budget
// (or the query is over its budget) at the end of an input batch, the
// whole table is flushed as partial aggregates into hash-partitioned
// temp files and re-merged partition by partition at the end — merging
// partials is exact for every supported function (AVG carries sum+count).
//
// GROUP BY follows SQL semantics: null keys compare equal (one null group).
class HashAggregateOperator final : public BatchOperator {
 public:
  struct Options {
    std::vector<int> group_by;  // input column indices
    std::vector<AggSpec> aggregates;
    AggPhase phase = AggPhase::kComplete;
    int num_partitions = 16;  // spill fanout, power of two
  };

  // The partial-row schema produced by a kPartial instance over `input`
  // with the given groups/aggregates, and consumed by kFinal: group
  // columns, then per aggregate a typed $value column and an int64 $count.
  static Schema PartialSchema(const Schema& input,
                              const std::vector<int>& group_by,
                              const std::vector<AggSpec>& aggregates);

  // For kFinal, `input`'s schema must be the PartialSchema of the partial
  // stage; options.group_by must be {0..k-1} and each aggregate's column
  // must point at its $value column.
  HashAggregateOperator(BatchOperatorPtr input, Options options,
                        ExecContext* ctx);
  ~HashAggregateOperator() override;

  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override;

 protected:
  Status OpenImpl() override;
  Result<Batch*> NextImpl() override;
  void CloseImpl() override;
  std::vector<const BatchOperator*> ProfileInputs() const override {
    return {input_.get()};
  }
  void AppendProfileCounters(OperatorProfile* node) const override;

 private:
  // Per-aggregate accumulator: 24 bytes — [acc:8][aux:8][count:8].
  static constexpr size_t kStateSlot = 24;

  size_t entry_size() const {
    return SerializedRowHashTable::kHeaderSize + key_format_->row_size() +
           kStateSlot * options_.aggregates.size();
  }
  uint8_t* entry_state(uint8_t* entry) const {
    return entry + SerializedRowHashTable::kHeaderSize +
           key_format_->row_size();
  }

  Status ConsumeInput();
  // `hash` is the row's group-key hash, precomputed batch-at-a-time by
  // ConsumeInput via HashKeysBatch.
  Result<uint8_t*> GroupEntryFromBatch(const Batch& batch, int64_t i,
                                       uint64_t hash);
  void InitState(uint8_t* state) const;
  // Folds one raw input row into the group state.
  void UpdateStateFromBatch(uint8_t* state, const Batch& batch, int64_t i);
  // Folds one partial row ((value, count) pairs) into the group state.
  void UpdateStateFromPartialBatch(uint8_t* state, const Batch& batch,
                                   int64_t i);
  Status FlushToPartitions();
  Status LoadPartition(int p);
  Status EmitEntries();
  // Resets the state arena + group table, re-attaching the tracker.
  void ResetAggState(int64_t expected_rows);
  // Local operator budget exceeded, or query-level budget pressure.
  bool UnderMemoryPressure(int64_t local_budget) const;
  // Writes one aggregate's partial (value, count) into `row` (spill path).
  void AppendPartialValues(const uint8_t* state, std::vector<Value>* row) const;

  BatchOperatorPtr input_;
  Options options_;
  ExecContext* ctx_;

  Schema output_schema_;
  Schema key_schema_;
  Schema partial_schema_;
  std::unique_ptr<RowFormat> key_format_;
  std::vector<int> key_indices_;      // 0..k-1 within key rows
  std::vector<uint8_t> state_kinds_;  // precomputed per-aggregate StateKind

  std::unique_ptr<Arena> arena_;
  std::unique_ptr<SerializedRowHashTable> table_;
  std::vector<uint8_t*> entries_;

  // Per-operator tracker under the query tracker (null when tracking is
  // off); the state arena and group table charge here. The pressure flag
  // is set by the query tracker's budget-crossing listener and consumed at
  // the existing flush decision point.
  std::unique_ptr<MemoryTracker> mem_;
  mutable std::atomic<bool> pressure_{false};
  int pressure_listener_ = 0;

  bool spilled_ = false;
  std::vector<std::FILE*> partition_files_;

  // Emission state.
  std::unique_ptr<Batch> output_;
  size_t emit_pos_ = 0;
  int drain_partition_ = 0;
  bool done_ = false;

  // Per-operator profile counters mirroring the query-global ExecStats.
  int64_t rows_aggregated_ = 0;
  int64_t groups_ = 0;
  int64_t spill_flushes_ = 0;
  int64_t rows_spilled_ = 0;
};

}  // namespace vstore

#endif  // VSTORE_EXEC_HASH_AGGREGATE_H_
