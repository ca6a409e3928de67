#ifndef VSTORE_EXEC_PARALLEL_HASH_JOIN_H_
#define VSTORE_EXEC_PARALLEL_HASH_JOIN_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/hash_join.h"

namespace vstore {

// Shared build side of a parallel batch-mode hash join (paper §5.3:
// multiple threads build one shared in-memory hash table, then all probe
// threads share the read-only result).
//
// Lifecycle: the physical planner creates one SharedHashJoinBuild per join
// in a parallelized plan region and hands it (via shared_ptr) to every
// probe fragment's HashJoinProbeOperator. The first fragment to Open()
// runs the build inside EnsureBuilt(): `build_dop` threads each lower one
// build-side fragment through `factory` (when the build side is a plain
// scan chain, the fragments claim morsels of one shared ScanMorsels) and
// insert its batches into one shared JoinBuildTable — the serial join's
// build routine, here with several inserters taking one partition lock per
// batch run. Joining the build threads forms the barrier, after which the
// per-partition chained tables and the pushed-down Bloom filter are
// constructed in parallel — each finalize thread fills a private filter and
// the results are OR-merged.
// Fragments that call EnsureBuilt() while the build is running block until
// it finishes; afterwards every fragment probes the same tables with no
// synchronization.
//
// Spilling: the JoinBuildTable flushes partitions once the resident build
// exceeds `memory_budget` (or the query's budget). Probe fragments append
// probe rows of spilled partitions to a shared per-partition file under
// the partition lock; the last fragment to finish probing
// (FinishProbeFragment) drains the spilled partition pairs through its
// JoinProber, one partition at a time, as the serial join does.
//
// A SharedHashJoinBuild supports one execution; the executor lowers a
// fresh physical plan per query, so operators over it are never reopened.
class SharedHashJoinBuild {
 public:
  using Options = HashJoinOperator::Options;

  // Creates the operator tree for build fragment `fragment` against the
  // fragment's own context. `resources` may receive an owner for plan
  // resources (nested Bloom filters of joins inside the build subtree)
  // that must stay alive while the returned operator runs.
  using BuildFactory = std::function<Result<BatchOperatorPtr>(
      int fragment, ExecContext* fragment_ctx,
      std::shared_ptr<void>* resources)>;

  SharedHashJoinBuild(Schema build_schema, Schema probe_schema,
                      Options options, BuildFactory factory, int build_dop,
                      int expected_probe_fragments, int64_t memory_budget);
  ~SharedHashJoinBuild();
  VSTORE_DISALLOW_COPY_AND_ASSIGN(SharedHashJoinBuild);

  // Runs the parallel build on the first call; concurrent callers block
  // until it completes and all callers see its status. Build-side
  // ExecStats are merged into the first caller's context.
  Status EnsureBuilt(ExecContext* caller_ctx);

  const Schema& build_schema() const { return build_schema_; }
  const Schema& probe_schema() const { return probe_schema_; }
  const Options& options() const { return options_; }
  const RowFormat& build_format() const { return build_format_; }
  const BloomFilter* bloom_target() const { return options_.bloom_target; }

  // Valid after EnsureBuilt(); partitions are read-only by then (the
  // drain additionally reads the spill files, single-threaded), apart from
  // SpillProbeRow's thread-safe appends to spilled partitions.
  JoinBuildTable& table() { return *table_; }

  // Each probe fragment calls this exactly once when its probe input is
  // exhausted; returns true for the last fragment, which then owns the
  // spill drain (all spill writers are finished by that point).
  bool FinishProbeFragment();

  // Profile attachment, called by fragment 0 only so the Exchange's
  // name-summing counter merge sees one contribution. Appends the merged
  // build-side operator profile as a child of `node` plus the parallel
  // build counters (per-fragment rows, lock/merge wait times).
  void AppendBuildProfile(OperatorProfile* node) const;

  int64_t peak_bytes() const { return table_->peak_bytes(); }
  int64_t spill_bytes() const {
    return table_ != nullptr ? table_->spill_bytes() : 0;
  }
  // Non-null once RunBuild has started under a tracking query; fragment 0's
  // probe operator folds its peak into the profile, and the draining
  // fragment attaches its reload arenas here.
  MemoryTracker* memory_tracker() const { return mem_.get(); }

 private:
  Status RunBuild(ExecContext* caller_ctx);
  Status BuildFragment(int fragment, ExecContext* fctx);
  // Builds partition tables and a thread-private Bloom filter for the
  // partitions striped to finalize thread `stripe`.
  Status FinalizeStripe(int stripe, int64_t total_rows);

  Schema build_schema_;
  Schema probe_schema_;
  Options options_;
  BuildFactory factory_;
  int build_dop_;
  int64_t memory_budget_;
  RowFormat build_format_;

  // Shared build tracker under the query tracker (created in RunBuild when
  // the caller's context carries one); declared before table_ so the
  // partition arenas/tables release into a live tracker on destruction.
  std::unique_ptr<MemoryTracker> mem_;
  std::unique_ptr<JoinBuildTable> table_;  // created by RunBuild

  // Build orchestration: first EnsureBuilt caller runs the build while the
  // mutex holds the others; the saved status is returned to all.
  std::mutex build_mu_;
  bool built_ = false;
  Status build_status_;

  // Per-fragment accounting, written under merge_mu_ as build fragments
  // finish; read-only after the build barrier.
  std::mutex merge_mu_;
  OperatorProfile build_profile_;
  int64_t profile_fragments_ = 0;
  std::vector<int64_t> fragment_build_rows_;
  int64_t lock_wait_ns_ = 0;
  int64_t bloom_merge_ns_ = 0;
  int64_t build_ns_ = 0;        // phase 1: parallel scan + insert
  int64_t table_build_ns_ = 0;  // phase 2: table + bloom finalize
  int64_t build_rows_ = 0;

  // Probe-side coordination (guarded by merge_mu_).
  int active_probe_fragments_;
};

// Probe-side operator of a parallel hash join: one per exchange fragment,
// all sharing one SharedHashJoinBuild. Open() triggers (or waits for) the
// shared build, then streams the fragment's probe chain against the shared
// read-only tables through a JoinProber — the serial HashJoinOperator's
// probe and drain path. Spilled probe rows go to the shared partition
// files, and whichever fragment finishes probing last runs the drain.
class HashJoinProbeOperator final : public BatchOperator {
 public:
  HashJoinProbeOperator(BatchOperatorPtr probe,
                        std::shared_ptr<SharedHashJoinBuild> shared,
                        int fragment, ExecContext* ctx);
  ~HashJoinProbeOperator() override;

  const Schema& output_schema() const override { return output_schema_; }
  std::string name() const override;

 protected:
  Status OpenImpl() override;
  Result<Batch*> NextImpl() override { return prober_.Next(); }
  void CloseImpl() override;
  std::vector<const BatchOperator*> ProfileInputs() const override {
    return {probe_.get()};
  }
  void AppendProfileCounters(OperatorProfile* node) const override;
  void AppendProfileChildren(OperatorProfile* node) const override;

 private:
  BatchOperatorPtr probe_;
  std::shared_ptr<SharedHashJoinBuild> shared_;
  int fragment_;
  ExecContext* ctx_;

  Schema output_schema_;
  JoinProber prober_;
};

}  // namespace vstore

#endif  // VSTORE_EXEC_PARALLEL_HASH_JOIN_H_
