#include "exec/parallel_hash_join.h"

#include <algorithm>
#include <bit>
#include <thread>

#include "common/macros.h"
#include "common/span_trace.h"

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
      prober_(probe_.get(), shared_->probe_schema(), output_schema_,
              shared_->build_format(), shared_->options(), ctx,
              [this] { return shared_->FinishProbeFragment(); }) {}

HashJoinProbeOperator::~HashJoinProbeOperator() { Close(); }

std::string HashJoinProbeOperator::name() const {
  return std::string("HashJoinProbe(") +
         JoinTypeName(shared_->options().join_type) + ")";
}

void HashJoinProbeOperator::AppendProfileCounters(
    OperatorProfile* node) const {
  node->counters.push_back({"probe_rows", prober_.probe_rows()});
  if (prober_.probe_rows_spilled() > 0) {
    node->counters.push_back(
        {"probe_rows_spilled", prober_.probe_rows_spilled()});
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
  VSTORE_RETURN_IF_ERROR(shared_->EnsureBuilt(ctx_));
  // The build is the memory-heavy half; attribute its high-water mark to
  // one fragment so the exchange's max-merge reports it once.
  if (fragment_ == 0) RecordPeakMemory(shared_->peak_bytes());
  // The drain's reload storage charges the shared build tracker: the drain
  // reloads spilled build partitions, which is build-side memory.
  prober_.Open(&shared_->table(), shared_->memory_tracker());
  // Open the probe chain only now: a pushed Bloom filter is populated by
  // the build above and the probe-side scan reads it during Open().
  return probe_->Open();
}

void HashJoinProbeOperator::CloseImpl() {
  // One fragment reports the shared build's tracker + spill bytes so the
  // exchange merge (sum across fragments) counts them once.
  if (fragment_ == 0) {
    RecordMemoryTracker(shared_->memory_tracker());
    RecordSpillBytes(shared_->spill_bytes());
  }
  prober_.Close();
  probe_->Close();  // no-op unless the build succeeded and opened it
}

}  // namespace vstore
