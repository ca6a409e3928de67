#include "exec/hash_join.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/macros.h"
#include "common/metrics.h"
#include "exec/spill.h"

namespace vstore {

const char* JoinTypeName(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "Inner";
    case JoinType::kLeftOuter:
      return "LeftOuter";
    case JoinType::kLeftSemi:
      return "LeftSemi";
    case JoinType::kLeftAnti:
      return "LeftAnti";
  }
  return "?";
}

Schema HashJoinOutputSchema(const Schema& probe, const Schema& build,
                            JoinType type) {
  std::vector<Field> fields = probe.fields();
  if (JoinEmitsBuildColumns(type)) {
    for (const Field& f : build.fields()) {
      Field nf = f;
      nf.nullable = true;  // null-extended under outer joins
      fields.push_back(nf);
    }
  }
  return Schema(std::move(fields));
}

namespace {

// Reads up to batch->capacity() spilled rows into `batch`, all active;
// returns the number read (0 at end of file).
Result<int64_t> ReadSpillBatch(std::FILE* f, const Schema& schema,
                               Batch* batch) {
  batch->Reset();
  std::vector<Value> row;
  int64_t n = 0;
  while (n < batch->capacity()) {
    VSTORE_ASSIGN_OR_RETURN(bool more, ReadSpillRow(f, schema, &row));
    if (!more) break;
    for (int c = 0; c < batch->num_columns(); ++c) {
      batch->column(c).SetValue(n, row[static_cast<size_t>(c)],
                                batch->arena());
    }
    ++n;
  }
  batch->set_num_rows(n);
  batch->ActivateAll();
  return n;
}

}  // namespace

JoinBuildTable::JoinBuildTable(const Schema& schema, const RowFormat& format,
                               const HashJoinOptions& options,
                               int64_t memory_budget, MemoryTracker* mem,
                               MemoryTracker* query_tracker)
    : schema_(schema),
      format_(format),
      options_(options),
      memory_budget_(memory_budget),
      partition_shift_(
          64 - std::countr_zero(static_cast<unsigned>(options.num_partitions))),
      mem_(mem),
      query_tracker_(query_tracker),
      partitions_(static_cast<size_t>(options.num_partitions)) {
  for (Partition& part : partitions_) {
    part.arena = std::make_unique<Arena>();
    part.arena->SetMemoryTracker(mem_);
  }
  if (query_tracker_ != nullptr) {
    pressure_listener_ = query_tracker_->AddPressureListener(
        [this] { pressure_.store(true, std::memory_order_relaxed); });
  }
}

JoinBuildTable::~JoinBuildTable() {
  if (pressure_listener_ != 0) {
    query_tracker_->RemovePressureListener(pressure_listener_);
  }
  for (Partition& part : partitions_) {
    if (part.build_file != nullptr) std::fclose(part.build_file);
    if (part.probe_file != nullptr) std::fclose(part.probe_file);
  }
}

bool JoinBuildTable::QueryMemoryPressure() const {
  if (pressure_.exchange(false, std::memory_order_relaxed)) return true;
  return query_tracker_ != nullptr && query_tracker_->over_budget();
}

Status JoinBuildTable::SpillRowLocked(std::FILE* f, const Schema& schema,
                                      const std::vector<Value>& row) {
  int64_t bytes = 0;
  VSTORE_RETURN_IF_ERROR(WriteSpillRow(f, schema, row, &bytes));
  spill_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  AddGlobalSpillBytes(bytes);
  return Status::OK();
}

Status JoinBuildTable::InsertBatch(const Batch& batch, Inserter* ins,
                                   ExecContext* ctx) {
  const int64_t n = batch.num_rows();
  const uint8_t* active = batch.active();
  ins->hashes.resize(static_cast<size_t>(n));
  HashKeysBatch(batch, options_.build_keys, active, ins->hashes.data());

  // Keep the active rows with no NULL key (those can never join) and count
  // them per partition, then counting-sort them into per-partition runs.
  const size_t np = partitions_.size();
  ins->run_start.assign(np + 1, 0);
  ins->kept.clear();
  for (int64_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    bool null_key = false;
    for (int k : options_.build_keys) {
      null_key |= batch.column(k).validity()[i] == 0;
    }
    if (null_key) continue;
    ins->kept.push_back(static_cast<uint32_t>(i));
    ++ins->run_start[static_cast<size_t>(PartitionOf(ins->hashes[i])) + 1];
  }
  for (size_t p = 0; p < np; ++p) ins->run_start[p + 1] += ins->run_start[p];
  ins->run_fill.assign(ins->run_start.begin(), ins->run_start.end() - 1);
  ins->runs.resize(ins->kept.size());
  for (uint32_t i : ins->kept) {
    const size_t p = static_cast<size_t>(PartitionOf(ins->hashes[i]));
    ins->runs[ins->run_fill[p]++] = i;
  }
  ins->rows += static_cast<int64_t>(ins->kept.size());

  // One lock acquisition per partition run. Runs whose partition lock is
  // busy are retried round-robin after the free ones; the inserter blocks
  // only when a whole round found every remaining lock held, and only
  // those waits count toward the lock-wait timer.
  int64_t grew = 0;
  std::vector<size_t>& pending = ins->pending;
  pending.clear();
  for (size_t p = 0; p < np; ++p) {
    if (ins->run_start[p + 1] > ins->run_start[p]) pending.push_back(p);
  }
  while (!pending.empty()) {
    size_t busy = 0;
    for (size_t p : pending) {
      std::unique_lock<std::mutex> lock(partitions_[p].mu, std::try_to_lock);
      if (lock.owns_lock()) {
        VSTORE_RETURN_IF_ERROR(AppendRunLocked(batch, *ins, p, ctx, &grew));
      } else {
        pending[busy++] = p;
      }
    }
    if (busy == pending.size()) {
      const size_t p = pending[--busy];
      const int64_t wait_start = MonotonicNowNs();
      std::lock_guard<std::mutex> lock(partitions_[p].mu);
      ins->lock_wait_ns += MonotonicNowNs() - wait_start;
      VSTORE_RETURN_IF_ERROR(AppendRunLocked(batch, *ins, p, ctx, &grew));
    }
    pending.resize(busy);
  }

  const int64_t total =
      total_bytes_.fetch_add(grew, std::memory_order_relaxed) + grew;
  int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (total > peak && !peak_bytes_.compare_exchange_weak(
                             peak, total, std::memory_order_relaxed)) {
  }
  // Spill outside the partition locks: MaybeSpill takes spill_mu_ first and
  // then the victim's lock.
  const bool query_pressure = QueryMemoryPressure();
  if (query_pressure || (memory_budget_ > 0 && total > memory_budget_)) {
    return MaybeSpill(ctx, query_pressure);
  }
  return Status::OK();
}

Status JoinBuildTable::AppendRunLocked(const Batch& batch,
                                       const Inserter& ins, size_t p,
                                       ExecContext* ctx, int64_t* grew) {
  Partition& part = partitions_[p];
  const uint32_t* run = ins.runs.data() + ins.run_start[p];
  const int64_t len = ins.run_start[p + 1] - ins.run_start[p];
  if (part.spilled) {
    for (int64_t r = 0; r < len; ++r) {
      VSTORE_RETURN_IF_ERROR(SpillRowLocked(part.build_file, schema_,
                                            batch.GetActiveRow(run[r])));
    }
    part.build_rows_on_disk += len;
    ctx->stats.build_rows_spilled += len;
    build_rows_spilled_.fetch_add(len, std::memory_order_relaxed);
    return Status::OK();
  }
  const size_t entry_size =
      SerializedRowHashTable::kHeaderSize + format_.row_size();
  for (int64_t r = 0; r < len; ++r) {
    uint8_t* entry = part.arena->Allocate(entry_size);
    format_.Write(entry + SerializedRowHashTable::kHeaderSize, batch, run[r],
                  part.arena.get());
    std::memcpy(entry + 8, &ins.hashes[run[r]], sizeof(uint64_t));
    part.rows.push_back(entry);
  }
  const int64_t bytes = static_cast<int64_t>(part.arena->bytes_allocated());
  *grew += bytes - part.bytes.load(std::memory_order_relaxed);
  part.bytes.store(bytes, std::memory_order_relaxed);
  return Status::OK();
}

Status JoinBuildTable::MaybeSpill(ExecContext* ctx, bool query_pressure) {
  std::lock_guard<std::mutex> spill_lock(spill_mu_);
  // Another thread may have flushed partitions while we waited. A query
  // budget crossing always sheds one victim — the build cannot observe
  // whether an unrelated release has since taken the query back under.
  bool shed = query_pressure;
  for (;;) {
    const bool over_budget =
        memory_budget_ > 0 &&
        total_bytes_.load(std::memory_order_relaxed) > memory_budget_;
    if (!shed && !over_budget) return Status::OK();
    // `spilled` only flips under spill_mu_ (plus the partition lock), so
    // this scan needs no partition locks; `bytes` is an atomic mirror.
    Partition* victim = nullptr;
    int64_t victim_bytes = 0;
    for (Partition& cand : partitions_) {
      const int64_t bytes = cand.bytes.load(std::memory_order_relaxed);
      if (!cand.spilled && bytes > victim_bytes) {
        victim = &cand;
        victim_bytes = bytes;
      }
    }
    if (victim == nullptr) return Status::OK();  // nothing left to shed
    {
      std::lock_guard<std::mutex> part_lock(victim->mu);
      VSTORE_RETURN_IF_ERROR(SpillPartitionLocked(victim, ctx));
    }
    shed = QueryMemoryPressure();
  }
}

Status JoinBuildTable::SpillPartitionLocked(Partition* part,
                                            ExecContext* ctx) {
  // Spill events are rare and expensive; record each as a trace span so
  // memory-pressure incidents are reconstructable from the ring buffer.
  ScopedTrace trace("hash_join_spill_partition", "spill");
  VSTORE_DCHECK(!part->spilled);
  part->build_file = std::tmpfile();
  part->probe_file = std::tmpfile();
  if (part->build_file == nullptr || part->probe_file == nullptr) {
    return Status::Internal("cannot create spill files");
  }
  std::vector<Value> row(static_cast<size_t>(schema_.num_columns()));
  for (uint8_t* entry : part->rows) {
    const uint8_t* payload = SerializedRowHashTable::EntryPayload(entry);
    for (int c = 0; c < schema_.num_columns(); ++c) {
      row[static_cast<size_t>(c)] = format_.GetValue(payload, c);
    }
    VSTORE_RETURN_IF_ERROR(SpillRowLocked(part->build_file, schema_, row));
  }
  const int64_t rows = static_cast<int64_t>(part->rows.size());
  part->build_rows_on_disk += rows;
  ctx->stats.build_rows_spilled += rows;
  build_rows_spilled_.fetch_add(rows, std::memory_order_relaxed);
  total_bytes_.fetch_sub(part->bytes.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  part->rows.clear();
  part->rows.shrink_to_fit();
  part->arena = std::make_unique<Arena>();
  part->arena->SetMemoryTracker(mem_);
  part->bytes.store(0, std::memory_order_relaxed);
  part->spilled = true;
  ++ctx->stats.spill_partitions;
  spill_partitions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status JoinBuildTable::Finalize(int stripe, int stride, BloomFilter* bloom) {
  for (size_t p = static_cast<size_t>(stripe); p < partitions_.size();
       p += static_cast<size_t>(stride)) {
    Partition& part = partitions_[p];
    if (!part.spilled) {
      part.table = std::make_unique<SerializedRowHashTable>(
          static_cast<int64_t>(part.rows.size()));
      part.table->SetMemoryTracker(mem_);
      for (uint8_t* entry : part.rows) {
        const uint64_t hash = SerializedRowHashTable::EntryHash(entry);
        part.table->Insert(entry, hash);
        if (bloom != nullptr) bloom->Insert(hash);
      }
    } else if (bloom != nullptr) {
      // Spilled build rows still participate in the filter (the filter
      // reflects the whole build side, resident or not).
      std::rewind(part.build_file);
      Batch batch(schema_, kDefaultBatchSize);
      std::vector<uint64_t> hashes(static_cast<size_t>(batch.capacity()));
      for (;;) {
        VSTORE_ASSIGN_OR_RETURN(
            int64_t n, ReadSpillBatch(part.build_file, schema_, &batch));
        if (n == 0) break;
        HashKeysBatch(batch, options_.build_keys, batch.active(),
                      hashes.data());
        for (int64_t i = 0; i < n; ++i) {
          bloom->Insert(hashes[static_cast<size_t>(i)]);
        }
      }
    }
  }
  return Status::OK();
}

Status JoinBuildTable::SpillProbeRow(int p, const Schema& probe_schema,
                                     const std::vector<Value>& row,
                                     ExecContext* ctx) {
  Partition& part = partition(p);
  std::lock_guard<std::mutex> lock(part.mu);
  VSTORE_RETURN_IF_ERROR(SpillRowLocked(part.probe_file, probe_schema, row));
  ++part.probe_rows_on_disk;
  ++ctx->stats.probe_rows_spilled;
  return Status::OK();
}

JoinProber::JoinProber(BatchOperator* probe, const Schema& probe_schema,
                       const Schema& output_schema,
                       const RowFormat& build_format,
                       const HashJoinOptions& options, ExecContext* ctx,
                       std::function<bool()> owns_drain)
    : probe_(probe),
      probe_schema_(probe_schema),
      output_schema_(output_schema),
      build_format_(build_format),
      options_(options),
      ctx_(ctx),
      owns_drain_(std::move(owns_drain)) {}

void JoinProber::Open(JoinBuildTable* table, MemoryTracker* drain_mem) {
  table_ = table;
  drain_mem_ = drain_mem;
  output_ = std::make_unique<Batch>(output_schema_, ctx_->batch_size);
  phase_ = Phase::kProbe;
  probe_batch_ = nullptr;
  drain_partition_ = 0;
  drain_loaded_ = false;
  probe_rows_ = 0;
  probe_rows_spilled_ = 0;
}

void JoinProber::Close() {
  output_.reset();
  drain_table_.reset();
  drain_arena_.reset();
  drain_batch_.reset();
  probe_batch_ = nullptr;
  table_ = nullptr;
}

void JoinProber::SetProbeBatch(Batch* batch) {
  probe_batch_ = batch;
  probe_row_ = 0;
  chain_ = nullptr;
  row_matched_ = false;
  hashes_.resize(static_cast<size_t>(batch->num_rows()));
  HashKeysBatch(*batch, options_.probe_keys, batch->active(), hashes_.data());
}

Result<Batch*> JoinProber::Next() {
  output_->Reset();
  out_rows_ = 0;
  while (phase_ != Phase::kDone) {
    if (probe_batch_ != nullptr) {
      VSTORE_ASSIGN_OR_RETURN(bool full, JoinRows());
      if (full) break;
      probe_batch_ = nullptr;
    } else if (phase_ == Phase::kProbe) {
      VSTORE_ASSIGN_OR_RETURN(Batch * batch, probe_->Next());
      if (batch == nullptr) {
        phase_ = owns_drain_() ? Phase::kDrain : Phase::kDone;
      } else {
        probe_rows_ += batch->active_count();
        SetProbeBatch(batch);
      }
    } else {
      VSTORE_ASSIGN_OR_RETURN(bool more, NextDrainBatch());
      if (!more) phase_ = Phase::kDone;
    }
  }
  if (out_rows_ == 0) return static_cast<Batch*>(nullptr);
  output_->set_num_rows(out_rows_);
  output_->ActivateAll();
  return output_.get();
}

Result<bool> JoinProber::JoinRows() {
  const JoinType jt = options_.join_type;
  const bool emit_matches = JoinEmitsBuildColumns(jt);
  const uint8_t* active = probe_batch_->active();
  for (; probe_row_ < probe_batch_->num_rows(); ++probe_row_) {
    if (!active[probe_row_]) continue;
    const uint64_t hash = hashes_[static_cast<size_t>(probe_row_)];
    if (chain_ == nullptr && !row_matched_) {
      // Drained rows all belong to the reloaded partition; probe rows of a
      // spilled partition wait for its drain.
      const SerializedRowHashTable* chains = drain_table_.get();
      if (phase_ == Phase::kProbe) {
        const int p = table_->PartitionOf(hash);
        JoinBuildTable::Partition& part = table_->partition(p);
        if (part.spilled) {
          VSTORE_RETURN_IF_ERROR(table_->SpillProbeRow(
              p, probe_schema_, probe_batch_->GetActiveRow(probe_row_), ctx_));
          ++probe_rows_spilled_;
          continue;
        }
        chains = part.table.get();
      }
      chain_ = chains->ChainHead(hash);
    }
    while (chain_ != nullptr) {
      if (out_rows_ == output_->capacity()) return true;
      const uint8_t* entry = chain_;
      chain_ = SerializedRowHashTable::ChainNext(entry);
      const uint8_t* payload = SerializedRowHashTable::EntryPayload(entry);
      if (SerializedRowHashTable::EntryHash(entry) != hash ||
          !build_format_.KeysEqualBatch(payload, options_.build_keys,
                                        *probe_batch_, probe_row_,
                                        options_.probe_keys)) {
        continue;
      }
      row_matched_ = true;
      if (!emit_matches) {
        chain_ = nullptr;  // semi/anti need only existence
        break;
      }
      Emit(payload);
    }
    // Chain exhausted: semi joins emit a matched row once, anti and outer
    // joins an unmatched one (outer null-extends it).
    const bool emit_probe_row =
        jt == JoinType::kLeftSemi ? row_matched_
                                  : jt != JoinType::kInner && !row_matched_;
    if (emit_probe_row) {
      if (out_rows_ == output_->capacity()) return true;
      Emit(nullptr);
    }
    row_matched_ = false;
  }
  return false;
}

void JoinProber::Emit(const uint8_t* build_row) {
  const int64_t out_row = out_rows_++;
  const int probe_cols = probe_batch_->num_columns();
  for (int c = 0; c < probe_cols; ++c) {
    const ColumnVector& src = probe_batch_->column(c);
    ColumnVector& dst = output_->column(c);
    dst.mutable_validity()[out_row] = src.validity()[probe_row_];
    switch (src.physical_type()) {
      case PhysicalType::kInt64:
        dst.mutable_ints()[out_row] = src.ints()[probe_row_];
        break;
      case PhysicalType::kDouble:
        dst.mutable_doubles()[out_row] = src.doubles()[probe_row_];
        break;
      case PhysicalType::kString:
        // Probe batch arenas are reused across batches while this output
        // accumulates rows from several of them — copy.
        dst.mutable_strings()[out_row] =
            output_->arena()->CopyString(src.strings()[probe_row_]);
        break;
    }
  }
  if (!JoinEmitsBuildColumns(options_.join_type)) return;
  for (int c = 0; c < build_format_.num_columns(); ++c) {
    ColumnVector& dst = output_->column(probe_cols + c);
    if (build_row == nullptr) {
      dst.mutable_validity()[out_row] = 0;
    } else {
      build_format_.CopyToVector(build_row, c, &dst, out_row,
                                 output_->arena());
    }
  }
}

Result<bool> JoinProber::NextDrainBatch() {
  for (; drain_partition_ < options_.num_partitions; ++drain_partition_) {
    JoinBuildTable::Partition& part = table_->partition(drain_partition_);
    if (!part.spilled) continue;
    if (!drain_loaded_) {
      VSTORE_RETURN_IF_ERROR(LoadDrainPartition(&part));
      drain_loaded_ = true;
    }
    VSTORE_ASSIGN_OR_RETURN(
        int64_t n,
        ReadSpillBatch(part.probe_file, probe_schema_, drain_batch_.get()));
    if (n > 0) {
      SetProbeBatch(drain_batch_.get());
      return true;
    }
    drain_loaded_ = false;
  }
  // Every partition is drained: release the last one's storage now rather
  // than at Close.
  drain_table_.reset();
  drain_arena_.reset();
  drain_batch_.reset();
  return false;
}

Status JoinProber::LoadDrainPartition(JoinBuildTable::Partition* part) {
  // Fresh storage per partition: resetting a grown arena would keep its
  // block-size growth across partitions.
  drain_table_.reset();
  drain_arena_ = std::make_unique<Arena>();
  drain_arena_->SetMemoryTracker(drain_mem_);
  drain_table_ = std::make_unique<SerializedRowHashTable>(
      std::max<int64_t>(part->build_rows_on_disk, 1));
  drain_table_->SetMemoryTracker(drain_mem_);

  const Schema& build_schema = table_->schema();
  Batch build(build_schema, ctx_->batch_size);
  std::vector<uint64_t> hashes(static_cast<size_t>(build.capacity()));
  const size_t entry_size =
      SerializedRowHashTable::kHeaderSize + build_format_.row_size();
  std::rewind(part->build_file);
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(
        int64_t n, ReadSpillBatch(part->build_file, build_schema, &build));
    if (n == 0) break;
    HashKeysBatch(build, options_.build_keys, build.active(), hashes.data());
    for (int64_t i = 0; i < n; ++i) {
      uint8_t* entry = drain_arena_->Allocate(entry_size);
      build_format_.Write(entry + SerializedRowHashTable::kHeaderSize, build,
                          i, drain_arena_.get());
      drain_table_->Insert(entry, hashes[static_cast<size_t>(i)]);
    }
  }
  std::rewind(part->probe_file);
  if (drain_batch_ == nullptr) {
    drain_batch_ = std::make_unique<Batch>(probe_schema_, ctx_->batch_size);
  }
  return Status::OK();
}

HashJoinOperator::HashJoinOperator(BatchOperatorPtr probe,
                                   BatchOperatorPtr build, Options options,
                                   ExecContext* ctx)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      options_(std::move(options)),
      ctx_(ctx),
      output_schema_(HashJoinOutputSchema(probe_->output_schema(),
                                          build_->output_schema(),
                                          options_.join_type)),
      build_format_(build_->output_schema()),
      prober_(probe_.get(), probe_->output_schema(), output_schema_,
              build_format_, options_, ctx, [] { return true; }) {
  VSTORE_CHECK(!options_.probe_keys.empty() &&
               options_.probe_keys.size() == options_.build_keys.size());
  VSTORE_CHECK(std::has_single_bit(
      static_cast<unsigned>(options_.num_partitions)));
  // Bloom pushdown must not hide probe rows from outer/anti joins.
  if (options_.bloom_target != nullptr) {
    VSTORE_CHECK(options_.join_type == JoinType::kInner ||
                 options_.join_type == JoinType::kLeftSemi);
    bloom_ = options_.bloom_target;
  }
  if (ctx_ != nullptr && ctx_->memory_tracker != nullptr) {
    mem_ = std::make_unique<MemoryTracker>(name(), "operator",
                                           ctx_->memory_tracker);
  }
}

HashJoinOperator::~HashJoinOperator() { Close(); }

std::string HashJoinOperator::name() const {
  return std::string("HashJoin(") + JoinTypeName(options_.join_type) + ")";
}

void HashJoinOperator::AppendProfileCounters(OperatorProfile* node) const {
  node->counters.push_back({"build_rows", build_rows_});
  node->counters.push_back({"probe_rows", prober_.probe_rows()});
  // Same names as the shared build's counters, so a dop-1 build and a
  // dop-N build compare directly in EXPLAIN ANALYZE.
  node->counters.push_back({"build_ns", build_ns_});
  node->counters.push_back({"table_build_ns", table_build_ns_});
  if (spill_partitions_ > 0) {
    node->counters.push_back({"spill_partitions", spill_partitions_});
    node->counters.push_back({"build_rows_spilled", build_rows_spilled_});
    node->counters.push_back(
        {"probe_rows_spilled", prober_.probe_rows_spilled()});
  }
  if (bloom_ != nullptr) {
    node->counters.push_back({"bloom_published", 1});
  }
}

Status HashJoinOperator::RunBuildPhase() {
  const int64_t build_start = MonotonicNowNs();
  table_ = std::make_unique<JoinBuildTable>(
      build_->output_schema(), build_format_, options_,
      ctx_->operator_memory_budget, mem_.get(), ctx_->memory_tracker);
  VSTORE_RETURN_IF_ERROR(build_->Open());
  JoinBuildTable::Inserter inserter;
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(Batch * batch, build_->Next());
    if (batch == nullptr) break;
    VSTORE_RETURN_IF_ERROR(table_->InsertBatch(*batch, &inserter, ctx_));
  }
  build_->Close();
  build_rows_ = inserter.rows;
  build_rows_spilled_ = table_->build_rows_spilled();
  spill_partitions_ = table_->spill_partitions();
  RecordPeakMemory(table_->peak_bytes());
  build_ns_ = MonotonicNowNs() - build_start;

  const int64_t finalize_start = MonotonicNowNs();
  if (bloom_ != nullptr) bloom_->Init(std::max<int64_t>(build_rows_, 1));
  VSTORE_RETURN_IF_ERROR(table_->Finalize(0, 1, bloom_));
  table_build_ns_ = MonotonicNowNs() - finalize_start;
  return Status::OK();
}

Status HashJoinOperator::OpenImpl() {
  table_.reset();
  if (mem_ != nullptr) mem_->ResetPeak();
  build_rows_ = 0;
  build_ns_ = 0;
  table_build_ns_ = 0;
  build_rows_spilled_ = 0;
  spill_partitions_ = 0;
  VSTORE_RETURN_IF_ERROR(RunBuildPhase());
  prober_.Open(table_.get(), mem_.get());
  // Open the probe side only after the build completed, so pushed Bloom
  // filters are populated before the probe scan starts.
  return probe_->Open();
}

void HashJoinOperator::CloseImpl() {
  prober_.Close();
  RecordMemoryTracker(mem_.get());
  if (table_ != nullptr) RecordSpillBytes(table_->spill_bytes());
  table_.reset();  // frees the partitions and closes their spill files
  probe_->Close();  // no-op unless the build succeeded and opened it
}

}  // namespace vstore
