#include "exec/parallel_hash_join.h"

#include <algorithm>
#include <bit>
#include <thread>

#include "common/macros.h"
#include "common/span_trace.h"
#include "exec/spill.h"

namespace vstore {

SharedHashJoinBuild::SharedHashJoinBuild(Schema build_schema,
                                         Schema probe_schema, Options options,
                                         BuildFactory factory, int build_dop,
                                         int expected_probe_fragments,
                                         int64_t memory_budget)
    : build_schema_(std::move(build_schema)),
      probe_schema_(std::move(probe_schema)),
      options_(std::move(options)),
      factory_(std::move(factory)),
      build_dop_(build_dop),
      memory_budget_(memory_budget),
      build_format_(build_schema_),
      active_probe_fragments_(expected_probe_fragments) {
  VSTORE_CHECK(build_dop_ >= 1 && expected_probe_fragments >= 1);
  VSTORE_CHECK(!options_.probe_keys.empty() &&
               options_.probe_keys.size() == options_.build_keys.size());
  VSTORE_CHECK(
      std::has_single_bit(static_cast<unsigned>(options_.num_partitions)));
  if (options_.bloom_target != nullptr) {
    VSTORE_CHECK(options_.join_type == JoinType::kInner ||
                 options_.join_type == JoinType::kLeftSemi);
  }
}

SharedHashJoinBuild::~SharedHashJoinBuild() = default;

Status SharedHashJoinBuild::EnsureBuilt(ExecContext* caller_ctx) {
  // The mutex doubles as the happens-before edge: every fragment passes
  // through it once, after which the built state is read without locks.
  std::lock_guard<std::mutex> lock(build_mu_);
  if (built_) return build_status_;
  build_status_ = RunBuild(caller_ctx);
  built_ = true;
  return build_status_;
}

Status SharedHashJoinBuild::RunBuild(ExecContext* caller_ctx) {
  const int64_t build_start = MonotonicNowNs();
  if (caller_ctx->memory_tracker != nullptr) {
    mem_ = std::make_unique<MemoryTracker>("SharedHashJoinBuild", "operator",
                                           caller_ctx->memory_tracker);
  }
  table_ = std::make_unique<JoinBuildTable>(build_schema_, build_format_,
                                            options_, memory_budget_,
                                            mem_.get(),
                                            caller_ctx->memory_tracker);
  fragment_build_rows_.assign(static_cast<size_t>(build_dop_), 0);

  // Phase 1: every build fragment drains its operator tree into the shared
  // partitions. Fragment contexts keep stats thread-local; they are merged
  // into the calling fragment's context after the join barrier (the
  // exchange then rolls them up like any other fragment stats).
  std::vector<std::unique_ptr<ExecContext>> fctxs;
  for (int f = 0; f < build_dop_; ++f) {
    auto fctx = std::make_unique<ExecContext>();
    fctx->batch_size = caller_ctx->batch_size;
    fctx->operator_memory_budget = caller_ctx->operator_memory_budget;
    fctx->memory_tracker = caller_ctx->memory_tracker;
    fctxs.push_back(std::move(fctx));
  }
  std::vector<Status> statuses(static_cast<size_t>(build_dop_));
  // Build threads are raw std::threads: re-install the first-arriving
  // fragment's trace context on each so build-side operator spans (and any
  // waits the build scans hit) still attribute to the query, parented to a
  // per-fragment "build_fragment:<f>" span. The barrier below means every
  // span is closed before EnsureBuilt returns.
  QueryTraceContext parent_tc = CurrentQueryTraceContext();
  auto run_build_fragment = [this, &fctxs, &statuses, &parent_tc](int f) {
    TraceSpan* span =
        parent_tc.recorder != nullptr
            ? parent_tc.recorder->StartSpan("build_fragment:" +
                                                std::to_string(f),
                                            "fragment", parent_tc.current)
            : nullptr;
    QueryTraceScope trace_scope(parent_tc.recorder,
                                span != nullptr ? span : parent_tc.current,
                                parent_tc.active_query);
    statuses[static_cast<size_t>(f)] =
        BuildFragment(f, fctxs[static_cast<size_t>(f)].get());
    if (span != nullptr) parent_tc.recorder->EndSpan(span);
  };
  if (build_dop_ == 1) {
    run_build_fragment(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(build_dop_));
    for (int f = 0; f < build_dop_; ++f) {
      threads.emplace_back([&run_build_fragment, f] { run_build_fragment(f); });
    }
    for (std::thread& t : threads) t.join();  // build barrier
  }
  for (auto& fctx : fctxs) caller_ctx->stats.MergeFrom(fctx->stats);
  for (const Status& s : statuses) {
    VSTORE_RETURN_IF_ERROR(s);
  }
  build_ns_ = MonotonicNowNs() - build_start;

  // Phase 2: chained tables + Bloom filter, partitions striped across the
  // same dop. The shared filter is Init()ed once from the total row count;
  // each stripe fills a private identically-sized filter and OR-merges it.
  const int64_t finalize_start = MonotonicNowNs();
  int64_t total_rows = 0;
  for (int64_t rows : fragment_build_rows_) total_rows += rows;
  if (options_.bloom_target != nullptr) {
    options_.bloom_target->Init(std::max<int64_t>(total_rows, 1));
  }
  if (build_dop_ == 1) {
    VSTORE_RETURN_IF_ERROR(FinalizeStripe(0, total_rows));
  } else {
    std::vector<Status> fin(static_cast<size_t>(build_dop_));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(build_dop_));
    for (int f = 0; f < build_dop_; ++f) {
      threads.emplace_back([this, f, total_rows, &fin] {
        fin[static_cast<size_t>(f)] = FinalizeStripe(f, total_rows);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& s : fin) {
      VSTORE_RETURN_IF_ERROR(s);
    }
  }
  table_build_ns_ = MonotonicNowNs() - finalize_start;
  return Status::OK();
}

Status SharedHashJoinBuild::BuildFragment(int fragment, ExecContext* fctx) {
  std::shared_ptr<void> resources;
  BatchOperatorPtr op;
  {
    Result<BatchOperatorPtr> op_result = factory_(fragment, fctx, &resources);
    if (!op_result.ok()) return op_result.status();
    op = std::move(op_result).value();
  }
  JoinBuildTable::Inserter inserter;
  Status status = op->Open();
  while (status.ok()) {
    Result<Batch*> batch_result = op->Next();
    if (!batch_result.ok()) {
      status = batch_result.status();
      break;
    }
    Batch* batch = batch_result.value();
    if (batch == nullptr) break;
    status = table_->InsertBatch(*batch, &inserter, fctx);
  }
  op->Close();

  OperatorProfile profile = op->BuildProfile();
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    if (profile_fragments_ == 0) {
      build_profile_ = std::move(profile);
    } else {
      build_profile_.MergeFrom(profile);
    }
    ++profile_fragments_;
    fragment_build_rows_[static_cast<size_t>(fragment)] = inserter.rows;
    build_rows_ += inserter.rows;
    lock_wait_ns_ += inserter.lock_wait_ns;
  }
  return status;
}

Status SharedHashJoinBuild::FinalizeStripe(int stripe, int64_t total_rows) {
  BloomFilter local_bloom;
  const bool blooming = options_.bloom_target != nullptr;
  if (blooming) local_bloom.Init(std::max<int64_t>(total_rows, 1));

  VSTORE_RETURN_IF_ERROR(table_->Finalize(
      stripe, build_dop_, blooming ? &local_bloom : nullptr));

  if (blooming) {
    const int64_t merge_start = MonotonicNowNs();
    std::lock_guard<std::mutex> lock(merge_mu_);
    options_.bloom_target->MergeFrom(local_bloom);
    bloom_merge_ns_ += MonotonicNowNs() - merge_start;
  }
  return Status::OK();
}

bool SharedHashJoinBuild::FinishProbeFragment() {
  std::lock_guard<std::mutex> lock(merge_mu_);
  VSTORE_DCHECK(active_probe_fragments_ > 0);
  return --active_probe_fragments_ == 0;
}

void SharedHashJoinBuild::AppendBuildProfile(OperatorProfile* node) const {
  node->counters.push_back({"build_rows", build_rows_});
  node->counters.push_back({"build_fragments", build_dop_});
  for (size_t f = 0; f < fragment_build_rows_.size(); ++f) {
    node->counters.push_back(
        {"build_rows_f" + std::to_string(f), fragment_build_rows_[f]});
  }
  node->counters.push_back({"build_ns", build_ns_});
  node->counters.push_back({"table_build_ns", table_build_ns_});
  node->counters.push_back({"build_lock_wait_ns", lock_wait_ns_});
  if (options_.bloom_target != nullptr) {
    node->counters.push_back({"bloom_published", 1});
    node->counters.push_back({"bloom_merge_ns", bloom_merge_ns_});
  }
  if (table_ != nullptr && table_->spill_partitions() > 0) {
    node->counters.push_back({"spill_partitions", table_->spill_partitions()});
  }
  if (profile_fragments_ > 0) {
    OperatorProfile child = build_profile_;
    child.fragments = profile_fragments_;
    node->children.push_back(std::move(child));
  }
}

HashJoinProbeOperator::HashJoinProbeOperator(
    BatchOperatorPtr probe, std::shared_ptr<SharedHashJoinBuild> shared,
    int fragment, ExecContext* ctx)
    : probe_(std::move(probe)),
      shared_(std::move(shared)),
      fragment_(fragment),
      ctx_(ctx),
      output_schema_(HashJoinOutputSchema(probe_->output_schema(),
                                          shared_->build_schema(),
                                          shared_->options().join_type)),
      probe_format_(probe_->output_schema()),
      emitter_(&probe_format_, &shared_->build_format(),
               JoinEmitsBuildColumns(shared_->options().join_type)) {}

HashJoinProbeOperator::~HashJoinProbeOperator() { Close(); }

std::string HashJoinProbeOperator::name() const {
  return std::string("HashJoinProbe(") +
         JoinTypeName(shared_->options().join_type) + ")";
}

void HashJoinProbeOperator::AppendProfileCounters(
    OperatorProfile* node) const {
  node->counters.push_back({"probe_rows", probe_rows_});
  if (probe_rows_spilled_ > 0) {
    node->counters.push_back({"probe_rows_spilled", probe_rows_spilled_});
  }
}

void HashJoinProbeOperator::AppendProfileChildren(
    OperatorProfile* node) const {
  BatchOperator::AppendProfileChildren(node);
  // Exactly one fragment reports the shared build: the exchange merge sums
  // counters by name across fragments, so dop copies would multiply them.
  if (fragment_ == 0) shared_->AppendBuildProfile(node);
}

Status HashJoinProbeOperator::OpenImpl() {
  probe_rows_ = 0;
  probe_rows_spilled_ = 0;
  out_rows_ = 0;
  phase_ = Phase::kInit;
  finish_reported_ = false;
  VSTORE_RETURN_IF_ERROR(shared_->EnsureBuilt(ctx_));
  // The build is the memory-heavy half; attribute its high-water mark to
  // one fragment so the exchange's max-merge reports it once.
  if (fragment_ == 0) RecordPeakMemory(shared_->peak_bytes());
  // Spill-drain arenas charge the shared build tracker: the drain reloads
  // spilled build partitions, which is build-side memory.
  drain_build_arena_.SetMemoryTracker(shared_->memory_tracker());
  drain_arena_.SetMemoryTracker(shared_->memory_tracker());
  // Open the probe chain only now: a pushed Bloom filter is populated by
  // the build above and the probe-side scan reads it during Open().
  VSTORE_RETURN_IF_ERROR(probe_->Open());
  output_ = std::make_unique<Batch>(output_schema_, ctx_->batch_size);
  phase_ = Phase::kProbe;
  probe_batch_ = nullptr;
  probe_row_ = 0;
  chain_ = nullptr;
  row_matched_ = false;
  drain_partition_ = 0;
  drain_loaded_ = false;
  drain_row_pending_ = false;
  return Status::OK();
}

void HashJoinProbeOperator::CloseImpl() {
  // One fragment reports the shared build's tracker + spill bytes so the
  // exchange merge (sum across fragments) counts them once.
  if (fragment_ == 0) {
    RecordMemoryTracker(shared_->memory_tracker());
    RecordSpillBytes(shared_->spill_bytes());
  }
  output_.reset();
  drain_table_.reset();
  if (phase_ != Phase::kInit) probe_->Close();
  probe_batch_ = nullptr;
}

Result<Batch*> HashJoinProbeOperator::NextImpl() {
  output_->Reset();
  out_rows_ = 0;
  bool ready = false;
  if (phase_ == Phase::kProbe) {
    VSTORE_ASSIGN_OR_RETURN(ready, PumpProbe());
  }
  if (!ready && phase_ == Phase::kSpillDrain) {
    VSTORE_ASSIGN_OR_RETURN(ready, PumpSpill());
  }
  if (out_rows_ == 0) return static_cast<Batch*>(nullptr);
  output_->set_num_rows(out_rows_);
  output_->ActivateAll();
  return output_.get();
}

Result<bool> HashJoinProbeOperator::PumpProbe() {
  const JoinType jt = shared_->options().join_type;
  const RowFormat& build_format = shared_->build_format();
  const std::vector<int>& build_keys = shared_->options().build_keys;
  const std::vector<int>& probe_keys = shared_->options().probe_keys;
  JoinBuildTable& table = shared_->table();
  for (;;) {
    if (probe_batch_ == nullptr) {
      VSTORE_ASSIGN_OR_RETURN(Batch * batch, probe_->Next());
      if (batch == nullptr) {
        if (!finish_reported_) {
          finish_reported_ = true;
          // The last fragment to exhaust its probe input owns the drain of
          // the spilled partition pairs — by then no fragment can append
          // another probe row to the shared spill files.
          bool last = shared_->FinishProbeFragment();
          phase_ = last && shared_->has_spilled_partitions()
                       ? Phase::kSpillDrain
                       : Phase::kDone;
        }
        return out_rows_ > 0;
      }
      probe_batch_ = batch;
      probe_row_ = 0;
      chain_ = nullptr;
      row_matched_ = false;
      const int64_t n = batch->num_rows();
      probe_hashes_.resize(static_cast<size_t>(n));
      HashKeysBatch(*batch, probe_keys, batch->active(),
                    probe_hashes_.data());
    }

    const uint8_t* active = probe_batch_->active();
    while (probe_row_ < probe_batch_->num_rows()) {
      if (!active[probe_row_]) {
        ++probe_row_;
        continue;
      }
      uint64_t hash = probe_hashes_[static_cast<size_t>(probe_row_)];
      const int p = table.PartitionOf(hash);
      JoinBuildTable::Partition& part = table.partition(p);

      if (part.spilled) {
        VSTORE_RETURN_IF_ERROR(table.SpillProbeRow(
            p, shared_->probe_schema(), probe_batch_->GetActiveRow(probe_row_),
            ctx_));
        ++probe_rows_spilled_;
        ++probe_rows_;
        ++probe_row_;
        continue;
      }

      if (chain_ == nullptr && !row_matched_) {
        chain_ = part.table->ChainHead(hash);
      }
      while (chain_ != nullptr) {
        if (out_rows_ == output_->capacity()) return true;
        const uint8_t* entry = chain_;
        const uint8_t* payload = SerializedRowHashTable::EntryPayload(entry);
        if (SerializedRowHashTable::EntryHash(entry) == hash &&
            build_format.KeysEqualBatch(payload, build_keys, *probe_batch_,
                                        probe_row_, probe_keys)) {
          row_matched_ = true;
          if (jt == JoinType::kInner || jt == JoinType::kLeftOuter) {
            emitter_.EmitFromBatch(output_.get(), *probe_batch_, probe_row_,
                                   payload, out_rows_++);
          } else {
            chain_ = nullptr;  // semi/anti need only existence
            break;
          }
        }
        if (chain_ != nullptr) {
          chain_ = SerializedRowHashTable::ChainNext(entry);
        }
      }

      bool emit_probe_only = (jt == JoinType::kLeftSemi && row_matched_) ||
                             (jt == JoinType::kLeftAnti && !row_matched_);
      bool emit_null_extended = jt == JoinType::kLeftOuter && !row_matched_;
      if (emit_probe_only || emit_null_extended) {
        if (out_rows_ == output_->capacity()) return true;
        emitter_.EmitFromBatch(output_.get(), *probe_batch_, probe_row_,
                               nullptr, out_rows_++);
      }
      ++probe_rows_;
      ++probe_row_;
      chain_ = nullptr;
      row_matched_ = false;
    }
    probe_batch_ = nullptr;
  }
}

Result<bool> HashJoinProbeOperator::PumpSpill() {
  const JoinType jt = shared_->options().join_type;
  const RowFormat& build_format = shared_->build_format();
  const std::vector<int>& build_keys = shared_->options().build_keys;
  const std::vector<int>& probe_keys = shared_->options().probe_keys;
  for (;;) {
    if (drain_partition_ >= shared_->num_partitions()) {
      phase_ = Phase::kDone;
      return out_rows_ > 0;
    }
    JoinBuildTable::Partition& part =
        shared_->table().partition(drain_partition_);
    if (!part.spilled) {
      ++drain_partition_;
      continue;
    }

    if (!drain_loaded_) {
      // Rebuild this partition's build side into operator-local storage;
      // the shared partitions stay strictly read-only after the build.
      std::rewind(part.build_file);
      drain_build_arena_.Reset();
      drain_table_ = std::make_unique<SerializedRowHashTable>(
          std::max<int64_t>(part.build_rows_on_disk, 1));
      drain_table_->SetMemoryTracker(shared_->memory_tracker());
      const size_t entry_size =
          SerializedRowHashTable::kHeaderSize + build_format.row_size();
      std::vector<Value> row;
      for (;;) {
        VSTORE_ASSIGN_OR_RETURN(
            bool more,
            ReadSpillRow(part.build_file, shared_->build_schema(), &row));
        if (!more) break;
        uint8_t* entry = drain_build_arena_.Allocate(entry_size);
        build_format.WriteValues(entry + SerializedRowHashTable::kHeaderSize,
                                 row, &drain_build_arena_);
        uint64_t hash = build_format.HashKeys(
            entry + SerializedRowHashTable::kHeaderSize, build_keys);
        drain_table_->Insert(entry, hash);
      }
      std::rewind(part.probe_file);
      drain_probe_row_.resize(probe_format_.row_size());
      drain_loaded_ = true;
      drain_row_pending_ = false;
    }

    for (;;) {
      if (!drain_row_pending_) {
        std::vector<Value> row;
        VSTORE_ASSIGN_OR_RETURN(
            bool more,
            ReadSpillRow(part.probe_file, shared_->probe_schema(), &row));
        if (!more) {
          drain_loaded_ = false;
          ++drain_partition_;
          break;  // next partition
        }
        drain_arena_.Reset();
        probe_format_.WriteValues(drain_probe_row_.data(), row, &drain_arena_);
        uint64_t hash =
            probe_format_.HashKeys(drain_probe_row_.data(), probe_keys);
        chain_ = drain_table_->ChainHead(hash);
        row_matched_ = false;
        drain_row_pending_ = true;
      }

      while (chain_ != nullptr) {
        if (out_rows_ == output_->capacity()) return true;
        const uint8_t* entry = chain_;
        const uint8_t* payload = SerializedRowHashTable::EntryPayload(entry);
        if (CrossFormatKeysEqual(build_format, payload, build_keys,
                                 probe_format_, drain_probe_row_.data(),
                                 probe_keys)) {
          row_matched_ = true;
          if (jt == JoinType::kInner || jt == JoinType::kLeftOuter) {
            emitter_.EmitFromSerialized(output_.get(), drain_probe_row_.data(),
                                        payload, out_rows_++);
          } else {
            chain_ = nullptr;
            break;
          }
        }
        if (chain_ != nullptr) {
          chain_ = SerializedRowHashTable::ChainNext(entry);
        }
      }

      bool emit_probe_only = (jt == JoinType::kLeftSemi && row_matched_) ||
                             (jt == JoinType::kLeftAnti && !row_matched_);
      bool emit_null_extended = jt == JoinType::kLeftOuter && !row_matched_;
      if (emit_probe_only || emit_null_extended) {
        if (out_rows_ == output_->capacity()) return true;
        emitter_.EmitFromSerialized(output_.get(), drain_probe_row_.data(),
                                    nullptr, out_rows_++);
      }
      drain_row_pending_ = false;
    }
  }
}

}  // namespace vstore
