#include "query/physical_planner.h"

#include <algorithm>
#include <map>

#include "common/macros.h"
#include "common/metrics.h"
#include "exec/exchange.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/mem_scan.h"
#include "exec/row/row_operator.h"
#include "exec/scalar_aggregate.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/union_all.h"
#include "query/system_views.h"

namespace vstore {

namespace {

// A Bloom filter waiting to be attached to the probe-side scan column with
// this name (propagates through filters, limits, and join probe sides).
struct PendingBloom {
  std::string column;
  const BloomFilter* filter;
};

// Scan source injected into a fragment's lowering: the morsel source the
// fragment's scan claims work from. Fragments of one column-store scan
// share one source (and so one pinned snapshot); a sharded scan gives each
// fragment its own shard's.
struct ForcedScanSource {
  std::shared_ptr<ScanMorsels> morsels;
  // Scatter-gather over a sharded table: when set, the fragment scans this
  // physical shard (the morsels above cover that shard's pinned version)
  // instead of the catalog entry's column store.
  const ColumnStoreTable* shard = nullptr;
};

// How one column-store scan is divided among fragments: a morsel source
// over one pinned snapshot, shared by every fragment, and the degree worth
// running, min(dop, morsels). The one place the planner divides a column
// store; scans, probe spines and shared builds all go through it.
struct ScanDivision {
  std::shared_ptr<ScanMorsels> morsels;
  int degree = 1;
};

ScanDivision DivideScan(const ColumnStoreTable* table, int dop,
                        bool include_deltas, int64_t batch_size) {
  ScanDivision division;
  division.morsels = std::make_shared<ScanMorsels>(
      table->Snapshot(), include_deltas, batch_size);
  division.degree = static_cast<int>(std::clamp<int64_t>(
      division.morsels->num_morsels(), 1, std::max(dop, 1)));
  return division;
}

// Per-shard scan targets of one sharded-scan lowering, after partition
// pruning; each target travels with the pinned snapshot its fragment scans.
struct ShardFanout {
  struct Target {
    const ColumnStoreTable* shard;
    TableSnapshot snapshot;
  };
  std::vector<Target> targets;
  int64_t shards_total = 0;
  int64_t shards_pruned = 0;
};

// Computes which shards a scan must touch. Equality pushdowns and IN-list
// notes on the partition column each constrain the candidate set to the
// shards their literal(s) hash to; multiple constraints intersect. Pruned
// shards are never snapshotted or scanned. Conservative by construction:
// predicates on other columns (or none at all) keep every shard, and the
// originating filters always stay in the plan, so pruning can only skip
// shards the predicates prove empty of matches.
ShardFanout ComputeShardFanout(const ShardedTable& table,
                               const LogicalPlan& scan) {
  const int n = table.num_shards();
  std::vector<bool> candidate(static_cast<size_t>(n), true);
  auto intersect = [&](const std::vector<bool>& allowed) {
    for (int i = 0; i < n; ++i) {
      size_t s = static_cast<size_t>(i);
      candidate[s] = candidate[s] && allowed[s];
    }
  };
  const std::string& key = table.partition_key();
  for (const NamedScanPredicate& pred : scan.pushed_predicates) {
    if (pred.op != CompareOp::kEq || pred.column != key) continue;
    std::vector<bool> allowed(static_cast<size_t>(n), false);
    allowed[static_cast<size_t>(table.ShardFor(pred.value))] = true;
    intersect(allowed);
  }
  for (const NamedInList& in : scan.pruning_in_lists) {
    if (in.column != key) continue;
    std::vector<bool> allowed(static_cast<size_t>(n), false);
    for (const Value& v : in.values) {
      allowed[static_cast<size_t>(table.ShardFor(v))] = true;
    }
    intersect(allowed);
  }
  ShardFanout fanout;
  fanout.shards_total = n;
  for (int i = 0; i < n; ++i) {
    if (!candidate[static_cast<size_t>(i)]) {
      ++fanout.shards_pruned;
      continue;
    }
    const ColumnStoreTable* shard = table.shard(i);
    fanout.targets.push_back(ShardFanout::Target{shard, shard->Snapshot()});
  }
  return fanout;
}

// Registry-side pruning accounting, bumped once per scatter actually built
// (fanouts computed but abandoned — e.g. a parallel rewrite that fell back
// to the serial path — are not counted).
void RecordShardScatter(const std::string& table, int64_t scanned,
                        int64_t pruned) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("vstore_scan_shards_pruned_total", "table", table)
      ->Increment(pruned);
  registry.GetCounter("vstore_scan_shards_scanned_total", "table", table)
      ->Increment(scanned);
}

// One ForcedScanSource per fragment for a parallelizable chain bottoming
// at `scan_node`: one shared morsel source for a column store, or one
// whole unpruned shard per fragment for a sharded table. An empty
// `sources` means the chain should not parallelize here (fewer than two
// fragments' worth of work); callers fall back to the serial lowering,
// where a sharded scan still becomes its own scatter exchange.
struct ChainFragments {
  std::vector<ForcedScanSource> sources;
  bool sharded = false;
  int64_t shards_total = 0;
  int64_t shards_pruned = 0;
};

ChainFragments PlanChainFragments(const Catalog& catalog,
                                  const PhysicalPlanOptions& options,
                                  int64_t batch_size,
                                  const PlanPtr& scan_node) {
  ChainFragments out;
  const Catalog::Entry* entry = catalog.Find(scan_node->table);
  if (entry->has_sharded_table()) {
    out.sharded = true;
    ShardFanout fanout = ComputeShardFanout(*entry->sharded_table, *scan_node);
    out.shards_total = fanout.shards_total;
    out.shards_pruned = fanout.shards_pruned;
    if (fanout.targets.size() < 2) return ChainFragments{};
    for (ShardFanout::Target& target : fanout.targets) {
      ForcedScanSource source;
      source.morsels = std::make_shared<ScanMorsels>(
          std::move(target.snapshot), options.include_deltas, batch_size);
      source.shard = target.shard;
      out.sources.push_back(std::move(source));
    }
    return out;
  }
  ScanDivision division = DivideScan(entry->column_store, options.dop,
                                     options.include_deltas, batch_size);
  if (division.degree < 2) return out;
  out.sources.assign(static_cast<size_t>(division.degree),
                     ForcedScanSource{division.morsels});
  return out;
}

// Shared build state for joins inside a parallelized plan region, keyed by
// the logical join node. Fragment lowerings consult this to probe the one
// shared build instead of preparing a serial one.
using SharedJoinMap =
    std::map<const LogicalPlan*, std::shared_ptr<SharedHashJoinBuild>>;

class Lowering {
 public:
  Lowering(const Catalog& catalog, ExecContext* ctx,
           const PhysicalPlanOptions& options, PhysicalPlan* out)
      : catalog_(catalog), ctx_(ctx), options_(options), out_(out) {}

  Result<BatchOperatorPtr> BuildBatch(const PlanPtr& plan,
                                      std::vector<PendingBloom> blooms);
  Result<RowOperatorPtr> BuildRow(const PlanPtr& plan);

  void set_forced_scan_source(const ForcedScanSource* source) {
    forced_scan_source_ = source;
  }
  void set_shared_joins(const SharedJoinMap* joins, int fragment) {
    shared_joins_ = joins;
    fragment_id_ = fragment;
  }

 private:
  Result<BatchOperatorPtr> BuildBatchScan(const PlanPtr& plan,
                                          std::vector<PendingBloom> blooms);
  // Scatter-gather scan of a sharded table: one fragment per unpruned
  // shard under an Exchange, each claiming every morsel of its shard's
  // pinned snapshot (compressed groups and delta stores both).
  Result<BatchOperatorPtr> BuildShardedScan(const PlanPtr& plan,
                                            const ShardedTable* sharded,
                                            std::vector<PendingBloom> blooms);
  // Parallel aggregation: partial aggregates in scan fragments, exchange,
  // final aggregate. Returns nullptr when the pattern does not apply.
  Result<BatchOperatorPtr> TryParallelAggregate(const PlanPtr& plan);
  // Parallel join: shared multi-threaded build, probe fragments claiming
  // morsels of the probe-side scan. Returns nullptr when the pattern does not
  // apply.
  Result<BatchOperatorPtr> TryParallelJoin(const PlanPtr& plan,
                                           std::vector<PendingBloom> blooms);
  // Creates the shared build (build side + Bloom filter) for one join read
  // by `probe_dop` probe fragments; 1 is a serial join.
  Result<std::shared_ptr<SharedHashJoinBuild>> PrepareSharedJoin(
      const PlanPtr& plan, int probe_dop);
  // Creates the shared builds for every join in a parallelized chain.
  Result<std::shared_ptr<SharedJoinMap>> PrepareSharedJoins(
      const std::vector<PlanPtr>& joins, int probe_dop);

  const Catalog& catalog_;
  ExecContext* ctx_;
  const PhysicalPlanOptions& options_;
  PhysicalPlan* out_;
  const ForcedScanSource* forced_scan_source_ = nullptr;
  const SharedJoinMap* shared_joins_ = nullptr;
  int fragment_id_ = 0;
};

// True when the subtree is scan/filter/project only with a column store at
// the bottom — the shape that parallelizes as independent fragments.
bool IsFragmentableChain(const Catalog& catalog, const PlanPtr& plan,
                         std::string* table_out) {
  PlanPtr cursor = plan;
  for (;;) {
    switch (cursor->kind) {
      case PlanKind::kScan: {
        const Catalog::Entry* entry = catalog.Find(cursor->table);
        if (entry == nullptr || !entry->has_column_store()) return false;
        *table_out = cursor->table;
        return true;
      }
      case PlanKind::kFilter:
      case PlanKind::kProject:
        cursor = cursor->children[0];
        break;
      default:
        return false;
    }
  }
}

// Like IsFragmentableChain, but the probe spine may pass through hash
// joins: scan/filter/project/join nodes descending the probe (left) side,
// with a column store — or a sharded table, whose fragments become
// per-shard scans — at the bottom. Outputs the bottom scan node (pruning
// reads its predicates) and collects the join nodes (outermost first);
// build sides may be arbitrary subtrees — they are lowered once into
// shared builds, not per fragment.
bool IsParallelJoinChain(const Catalog& catalog, const PlanPtr& plan,
                         PlanPtr* scan_out,
                         std::vector<PlanPtr>* joins_out) {
  PlanPtr cursor = plan;
  for (;;) {
    switch (cursor->kind) {
      case PlanKind::kScan: {
        const Catalog::Entry* entry = catalog.Find(cursor->table);
        if (entry == nullptr ||
            (!entry->has_column_store() && !entry->has_sharded_table())) {
          return false;
        }
        *scan_out = cursor;
        return true;
      }
      case PlanKind::kFilter:
      case PlanKind::kProject:
        cursor = cursor->children[0];
        break;
      case PlanKind::kJoin:
        joins_out->push_back(cursor);
        cursor = cursor->children[0];
        break;
      default:
        return false;
    }
  }
}

Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    int idx = schema.IndexOf(name);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + name);
    out.push_back(idx);
  }
  return out;
}

Result<std::vector<AggSpec>> ResolveAggs(
    const Schema& schema, const std::vector<NamedAggSpec>& named) {
  std::vector<AggSpec> out;
  out.reserve(named.size());
  for (const NamedAggSpec& spec : named) {
    int idx = -1;
    if (spec.fn != AggFn::kCountStar) {
      idx = schema.IndexOf(spec.column);
      if (idx < 0) {
        return Status::InvalidArgument("unknown aggregate column: " +
                                       spec.column);
      }
    }
    out.push_back(AggSpec{spec.fn, idx, spec.name});
  }
  return out;
}

// Rebuilds a pushed predicate as an expression (row-mode scans evaluate
// pushdowns as ordinary filters).
ExprPtr PredicateToExpr(const Schema& schema, const NamedScanPredicate& pred) {
  return expr::Cmp(pred.op, expr::Column(schema, pred.column),
                   expr::Lit(pred.value));
}

// Tuple-at-a-time LIMIT for row-mode plans.
class RowLimitOperator final : public RowOperator {
 public:
  RowLimitOperator(RowOperatorPtr input, int64_t limit)
      : input_(std::move(input)), limit_(limit) {}

  Status Open() override {
    remaining_ = limit_;
    return input_->Open();
  }
  Result<bool> Next(std::vector<Value>* row) override {
    if (remaining_ <= 0) return false;
    VSTORE_ASSIGN_OR_RETURN(bool more, input_->Next(row));
    if (!more) return false;
    --remaining_;
    return true;
  }
  void Close() override { input_->Close(); }
  const Schema& output_schema() const override {
    return input_->output_schema();
  }
  std::string name() const override { return "RowLimit"; }

 private:
  RowOperatorPtr input_;
  int64_t limit_;
  int64_t remaining_ = 0;
};

Result<BatchOperatorPtr> Lowering::BuildBatchScan(
    const PlanPtr& plan, std::vector<PendingBloom> blooms) {
  const Catalog::Entry* entry = catalog_.Find(plan->table);
  if (entry == nullptr) return Status::NotFound("unknown table " + plan->table);

  if (entry->has_system_view()) {
    // Virtual table: materialize the view now (it pins its own storage
    // snapshots) and scan the result in memory. Pushed predicates become
    // batch filters; pending blooms cannot be pushed into a materialized
    // scan — drop them, the join still filters exactly.
    VSTORE_ASSIGN_OR_RETURN(TableData materialized,
                            entry->system_view->Materialize(catalog_));
    auto data = std::make_shared<const TableData>(std::move(materialized));
    BatchOperatorPtr batch = std::make_unique<MemTableScanOperator>(
        std::move(data), plan->table, ctx_);
    for (const NamedScanPredicate& pred : plan->pushed_predicates) {
      batch = std::make_unique<FilterOperator>(
          std::move(batch), PredicateToExpr(entry->schema(), pred), ctx_);
    }
    if (!plan->scan_columns.empty()) {
      std::vector<ExprPtr> exprs;
      for (const std::string& name : plan->scan_columns) {
        exprs.push_back(expr::Column(entry->schema(), name));
      }
      batch = std::make_unique<ProjectOperator>(
          std::move(batch), std::move(exprs), plan->scan_columns, ctx_);
    }
    return batch;
  }

  const bool is_shard_fragment =
      forced_scan_source_ != nullptr && forced_scan_source_->shard != nullptr;
  if (entry->has_sharded_table() && !is_shard_fragment) {
    return BuildShardedScan(plan, entry->sharded_table, std::move(blooms));
  }

  if (!entry->has_column_store() && !is_shard_fragment) {
    // Batch plan over a row store: adapt a row scan, predicates become a
    // batch filter (pending blooms cannot be pushed; drop them — the join
    // still filters exactly).
    RowOperatorPtr scan =
        std::make_unique<RowStoreScanOperator>(entry->row_store);
    BatchOperatorPtr batch =
        std::make_unique<RowToBatchAdapter>(std::move(scan), ctx_);
    for (const NamedScanPredicate& pred : plan->pushed_predicates) {
      batch = std::make_unique<FilterOperator>(
          std::move(batch), PredicateToExpr(entry->schema(), pred), ctx_);
    }
    if (!plan->scan_columns.empty()) {
      std::vector<ExprPtr> exprs;
      for (const std::string& name : plan->scan_columns) {
        exprs.push_back(expr::Column(entry->schema(), name));
      }
      batch = std::make_unique<ProjectOperator>(
          std::move(batch), std::move(exprs), plan->scan_columns, ctx_);
    }
    return batch;
  }

  // Inside a scatter fragment the scan targets the injected shard; the
  // shard's schema is the logical table's, so name resolution is unchanged.
  const ColumnStoreTable* table =
      is_shard_fragment ? forced_scan_source_->shard : entry->column_store;
  ColumnStoreScanOperator::Options scan_options;
  scan_options.include_deltas = options_.include_deltas;
  scan_options.label = plan->table;
  for (const std::string& name : plan->scan_columns) {
    int idx = table->schema().IndexOf(name);
    if (idx < 0) return Status::InvalidArgument("unknown scan column " + name);
    scan_options.projection.push_back(idx);
  }
  for (const NamedScanPredicate& pred : plan->pushed_predicates) {
    int idx = table->schema().IndexOf(pred.column);
    if (idx < 0) {
      return Status::InvalidArgument("unknown pushdown column " + pred.column);
    }
    scan_options.predicates.push_back(ScanPredicate{idx, pred.op, pred.value});
  }
  for (const PendingBloom& pb : blooms) {
    int idx = table->schema().IndexOf(pb.column);
    if (idx < 0) continue;  // column renamed away; join still filters
    scan_options.bloom_filters.push_back(BloomFilterSpec{idx, pb.filter});
  }

  if (forced_scan_source_ != nullptr) {
    scan_options.morsels = forced_scan_source_->morsels;
    return BatchOperatorPtr(
        std::make_unique<ColumnStoreScanOperator>(table, scan_options, ctx_));
  }

  // One morsel source per scan lowering: every fragment reads its pinned
  // version, regardless of concurrent DML or tuple-mover passes.
  ScanDivision division = DivideScan(table, options_.dop,
                                     scan_options.include_deltas,
                                     ctx_->batch_size);
  scan_options.morsels = division.morsels;
  if (division.degree < 2) {
    return BatchOperatorPtr(
        std::make_unique<ColumnStoreScanOperator>(table, scan_options, ctx_));
  }

  // Parallel scan: every fragment claims morsels from the shared source.
  Schema out_schema = table->schema().Project(
      scan_options.projection.empty()
          ? [&] {
              std::vector<int> all;
              for (int c = 0; c < table->schema().num_columns(); ++c) {
                all.push_back(c);
              }
              return all;
            }()
          : scan_options.projection);
  auto factory = [table, scan_options](
                     int /*fragment*/,
                     ExecContext* fctx) -> Result<BatchOperatorPtr> {
    return BatchOperatorPtr(
        std::make_unique<ColumnStoreScanOperator>(table, scan_options, fctx));
  };
  return BatchOperatorPtr(std::make_unique<ExchangeOperator>(
      out_schema, std::move(factory), division.degree, ctx_));
}

Result<BatchOperatorPtr> Lowering::BuildShardedScan(
    const PlanPtr& plan, const ShardedTable* sharded,
    std::vector<PendingBloom> blooms) {
  // Projection, pushdowns, and Bloom specs resolve once against the
  // logical schema; every shard shares them.
  ColumnStoreScanOperator::Options scan_options;
  scan_options.include_deltas = options_.include_deltas;
  scan_options.label = plan->table;
  for (const std::string& name : plan->scan_columns) {
    int idx = sharded->schema().IndexOf(name);
    if (idx < 0) return Status::InvalidArgument("unknown scan column " + name);
    scan_options.projection.push_back(idx);
  }
  for (const NamedScanPredicate& pred : plan->pushed_predicates) {
    int idx = sharded->schema().IndexOf(pred.column);
    if (idx < 0) {
      return Status::InvalidArgument("unknown pushdown column " + pred.column);
    }
    scan_options.predicates.push_back(ScanPredicate{idx, pred.op, pred.value});
  }
  for (const PendingBloom& pb : blooms) {
    int idx = sharded->schema().IndexOf(pb.column);
    if (idx < 0) continue;  // column renamed away; join still filters
    scan_options.bloom_filters.push_back(BloomFilterSpec{idx, pb.filter});
  }

  Schema out_schema = scan_options.projection.empty()
                          ? sharded->schema()
                          : sharded->schema().Project(scan_options.projection);

  ShardFanout fanout = ComputeShardFanout(*sharded, *plan);
  RecordShardScatter(plan->table,
                     static_cast<int64_t>(fanout.targets.size()),
                     fanout.shards_pruned);
  if (fanout.targets.empty()) {
    // Every shard pruned: the predicates prove no row can match. An empty
    // in-memory scan keeps the operator contract (and the profile shape
    // cheap) without spawning fragments.
    return BatchOperatorPtr(std::make_unique<MemTableScanOperator>(
        std::make_shared<const TableData>(out_schema), plan->table, ctx_));
  }

  auto targets = std::make_shared<std::vector<ShardFanout::Target>>(
      std::move(fanout.targets));
  auto factory = [targets, scan_options](
                     int fragment, ExecContext* fctx) -> Result<BatchOperatorPtr> {
    const ShardFanout::Target& target =
        (*targets)[static_cast<size_t>(fragment)];
    ColumnStoreScanOperator::Options frag = scan_options;
    frag.morsels = std::make_shared<ScanMorsels>(
        target.snapshot, frag.include_deltas, fctx->batch_size);
    return BatchOperatorPtr(std::make_unique<ColumnStoreScanOperator>(
        target.shard, frag, fctx));
  };
  auto exchange = std::make_unique<ExchangeOperator>(
      std::move(out_schema), std::move(factory),
      static_cast<int>(targets->size()), ctx_, "Scatter " + plan->table);
  exchange->AddStaticCounter("shards_total", fanout.shards_total);
  exchange->AddStaticCounter("shards_pruned", fanout.shards_pruned);
  return BatchOperatorPtr(std::move(exchange));
}

Result<std::shared_ptr<SharedHashJoinBuild>> Lowering::PrepareSharedJoin(
    const PlanPtr& plan, int probe_dop) {
  SharedHashJoinBuild::Options join_options;
  join_options.join_type = plan->join_type;
  VSTORE_ASSIGN_OR_RETURN(
      join_options.probe_keys,
      ResolveColumns(plan->children[0]->schema, plan->left_keys));
  VSTORE_ASSIGN_OR_RETURN(
      join_options.build_keys,
      ResolveColumns(plan->children[1]->schema, plan->right_keys));
  if (plan->use_bloom && plan->left_keys.size() == 1) {
    // Single-key blooms only: multi-key combined hashes differ between the
    // per-column scan hash and the joint key hash.
    auto filter = std::make_unique<BloomFilter>();
    join_options.bloom_target = filter.get();
    out_->bloom_filters.push_back(std::move(filter));
  }

  PlanPtr build_plan = plan->children[1];
  if (probe_dop == 1) {
    // A serial join: its one build fragment is lowered now, against this
    // lowering's context and dop (so a build-side scan or aggregate keeps
    // its own Exchange), and drained inline by the join's Open().
    VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr build, BuildBatch(build_plan, {}));
    return SharedHashJoinBuild::Serial(std::move(build),
                                       std::move(join_options),
                                       ctx_->operator_memory_budget);
  }

  // Under several probe fragments the build parallelizes only when the
  // build side is itself a plain scan/filter/project chain: its fragments
  // claim morsels of one shared source. Anything else (nested joins,
  // aggregates) is lowered and drained by a single build fragment. Either
  // way fragments lower dop-1 copies, which nest no exchanges.
  std::string build_table;
  ScanDivision division;
  if (IsFragmentableChain(catalog_, build_plan, &build_table)) {
    division = DivideScan(catalog_.GetColumnStore(build_table), probe_dop,
                          options_.include_deltas, ctx_->batch_size);
  }

  const Catalog* catalog = &catalog_;
  PhysicalPlanOptions options = options_;
  options.dop = 1;
  ForcedScanSource source{division.morsels};
  SharedHashJoinBuild::BuildFactory factory =
      [catalog, options, build_plan, source](
          int /*fragment*/, ExecContext* fctx,
          std::shared_ptr<void>* resources) -> Result<BatchOperatorPtr> {
    auto scratch = std::make_shared<PhysicalPlan>();
    Lowering sub(*catalog, fctx, options, scratch.get());
    if (source.morsels != nullptr) sub.set_forced_scan_source(&source);
    VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr op,
                            sub.BuildBatch(build_plan, {}));
    // Joins nested inside the build subtree own Bloom filters through the
    // scratch plan; keep it alive for the fragment's lifetime.
    *resources = std::move(scratch);
    return op;
  };
  return std::make_shared<SharedHashJoinBuild>(
      build_plan->schema, std::move(join_options), std::move(factory),
      division.degree, probe_dop, ctx_->operator_memory_budget);
}

Result<std::shared_ptr<SharedJoinMap>> Lowering::PrepareSharedJoins(
    const std::vector<PlanPtr>& joins, int probe_dop) {
  auto map = std::make_shared<SharedJoinMap>();
  for (const PlanPtr& join_plan : joins) {
    VSTORE_ASSIGN_OR_RETURN(std::shared_ptr<SharedHashJoinBuild> shared,
                            PrepareSharedJoin(join_plan, probe_dop));
    (*map)[join_plan.get()] = shared;
    out_->shared_builds.push_back(std::move(shared));
  }
  return map;
}

Result<BatchOperatorPtr> Lowering::TryParallelJoin(
    const PlanPtr& plan, std::vector<PendingBloom> blooms) {
  PlanPtr scan_node;
  std::vector<PlanPtr> joins;
  if (!IsParallelJoinChain(catalog_, plan, &scan_node, &joins)) {
    return BatchOperatorPtr(nullptr);
  }
  ChainFragments frags =
      PlanChainFragments(catalog_, options_, ctx_->batch_size, scan_node);
  const int dop = static_cast<int>(frags.sources.size());
  if (dop < 2) return BatchOperatorPtr(nullptr);

  VSTORE_ASSIGN_OR_RETURN(std::shared_ptr<SharedJoinMap> shared_map,
                          PrepareSharedJoins(joins, dop));

  // Fragments lower the whole probe spine over the shared morsels or their
  // shard; the join nodes resolve to probe operators over the shared builds.
  const Catalog* catalog = &catalog_;
  PhysicalPlanOptions options = options_;
  PlanPtr chain_plan = plan;
  auto sources = std::make_shared<std::vector<ForcedScanSource>>(
      std::move(frags.sources));
  auto factory = [catalog, options, chain_plan, shared_map, sources, blooms](
                     int fragment,
                     ExecContext* fctx) -> Result<BatchOperatorPtr> {
    PhysicalPlan scratch;
    Lowering sub(*catalog, fctx, options, &scratch);
    sub.set_forced_scan_source(&(*sources)[static_cast<size_t>(fragment)]);
    sub.set_shared_joins(shared_map.get(), fragment);
    VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr chain,
                            sub.BuildBatch(chain_plan, blooms));
    // Fragment lowerings attach no resources of their own: chain joins use
    // the shared builds, whose filters live in the outer plan.
    VSTORE_CHECK(scratch.bloom_filters.empty() &&
                 scratch.shared_builds.empty());
    return chain;
  };
  Schema out_schema =
      HashJoinOutputSchema(plan->children[0]->schema,
                           plan->children[1]->schema, plan->join_type);
  auto exchange = std::make_unique<ExchangeOperator>(
      std::move(out_schema), std::move(factory), dop, ctx_, "HashJoin");
  if (frags.sharded) {
    exchange->AddStaticCounter("shards_total", frags.shards_total);
    exchange->AddStaticCounter("shards_pruned", frags.shards_pruned);
    RecordShardScatter(scan_node->table, dop, frags.shards_pruned);
  }
  return BatchOperatorPtr(std::move(exchange));
}

Result<BatchOperatorPtr> Lowering::TryParallelAggregate(const PlanPtr& plan) {
  PlanPtr scan_node;
  std::vector<PlanPtr> joins;
  if (!IsParallelJoinChain(catalog_, plan->children[0], &scan_node, &joins)) {
    return BatchOperatorPtr(nullptr);
  }
  ChainFragments frags =
      PlanChainFragments(catalog_, options_, ctx_->batch_size, scan_node);
  const int dop = static_cast<int>(frags.sources.size());
  if (dop < 2) return BatchOperatorPtr(nullptr);

  const Schema& child_schema = plan->children[0]->schema;
  VSTORE_ASSIGN_OR_RETURN(std::vector<AggSpec> aggs,
                          ResolveAggs(child_schema, plan->aggregates));
  VSTORE_ASSIGN_OR_RETURN(std::vector<int> group_by,
                          ResolveColumns(child_schema, plan->group_by));
  Schema partial_schema =
      HashAggregateOperator::PartialSchema(child_schema, group_by, aggs);

  // Joins on the probe spine share one build across all fragments, so
  // scan → join → partial agg parallelizes as a single fragment tree.
  VSTORE_ASSIGN_OR_RETURN(std::shared_ptr<SharedJoinMap> shared_map,
                          PrepareSharedJoins(joins, dop));

  // Fragments: chain + partial aggregation over the shared morsels or a
  // shard.
  const Catalog* catalog = &catalog_;
  PhysicalPlanOptions options = options_;
  PlanPtr child_plan = plan->children[0];
  auto sources = std::make_shared<std::vector<ForcedScanSource>>(
      std::move(frags.sources));
  auto factory = [catalog, options, child_plan, shared_map, aggs, group_by,
                  sources](int fragment, ExecContext* fctx)
      -> Result<BatchOperatorPtr> {
    PhysicalPlan scratch;  // fragments create no shared resources
    Lowering sub(*catalog, fctx, options, &scratch);
    sub.set_forced_scan_source(&(*sources)[static_cast<size_t>(fragment)]);
    sub.set_shared_joins(shared_map.get(), fragment);
    VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr chain,
                            sub.BuildBatch(child_plan, {}));
    VSTORE_CHECK(scratch.bloom_filters.empty() &&
                 scratch.shared_builds.empty());
    HashAggregateOperator::Options partial;
    partial.group_by = group_by;
    partial.aggregates = aggs;
    partial.phase = AggPhase::kPartial;
    return BatchOperatorPtr(std::make_unique<HashAggregateOperator>(
        std::move(chain), std::move(partial), fctx));
  };
  auto exchange_op = std::make_unique<ExchangeOperator>(
      partial_schema, std::move(factory), dop, ctx_);
  if (frags.sharded) {
    exchange_op->AddStaticCounter("shards_total", frags.shards_total);
    exchange_op->AddStaticCounter("shards_pruned", frags.shards_pruned);
    RecordShardScatter(scan_node->table, dop, frags.shards_pruned);
  }
  BatchOperatorPtr exchange = std::move(exchange_op);

  // Final aggregation over the partial rows.
  HashAggregateOperator::Options final_options;
  final_options.phase = AggPhase::kFinal;
  for (size_t k = 0; k < group_by.size(); ++k) {
    final_options.group_by.push_back(static_cast<int>(k));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    AggSpec spec = aggs[a];
    spec.column = static_cast<int>(group_by.size() + 2 * a);
    final_options.aggregates.push_back(std::move(spec));
  }
  return BatchOperatorPtr(std::make_unique<HashAggregateOperator>(
      std::move(exchange), std::move(final_options), ctx_));
}

Result<BatchOperatorPtr> Lowering::BuildBatch(
    const PlanPtr& plan, std::vector<PendingBloom> blooms) {
  switch (plan->kind) {
    case PlanKind::kScan:
      return BuildBatchScan(plan, std::move(blooms));

    case PlanKind::kFilter: {
      VSTORE_ASSIGN_OR_RETURN(
          BatchOperatorPtr child,
          BuildBatch(plan->children[0], std::move(blooms)));
      return BatchOperatorPtr(std::make_unique<FilterOperator>(
          std::move(child), plan->predicate, ctx_));
    }

    case PlanKind::kProject: {
      // Bloom columns do not propagate through projections (names/exprs
      // change); attach nothing below.
      VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildBatch(plan->children[0], {}));
      return BatchOperatorPtr(std::make_unique<ProjectOperator>(
          std::move(child), plan->exprs, plan->names, ctx_));
    }

    case PlanKind::kJoin: {
      // Inside a parallel fragment a chain join probes the shared build
      // prepared for the whole region; anywhere else the join is parallel
      // or serial, with a build of its own. The Bloom filter, if any, was
      // created with the build and is populated by it.
      std::shared_ptr<SharedHashJoinBuild> shared;
      int fragment = 0;
      if (shared_joins_ != nullptr) {
        auto it = shared_joins_->find(plan.get());
        if (it != shared_joins_->end()) {
          shared = it->second;
          fragment = fragment_id_;
        }
      } else if (options_.dop > 1 && forced_scan_source_ == nullptr) {
        VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr parallel,
                                TryParallelJoin(plan, blooms));
        if (parallel != nullptr) return parallel;
      }
      if (shared == nullptr) {
        VSTORE_ASSIGN_OR_RETURN(shared, PrepareSharedJoin(plan, 1));
      }
      if (shared->bloom_target() != nullptr) {
        blooms.push_back(
            PendingBloom{plan->left_keys[0], shared->bloom_target()});
      }
      VSTORE_ASSIGN_OR_RETURN(
          BatchOperatorPtr probe,
          BuildBatch(plan->children[0], std::move(blooms)));
      return BatchOperatorPtr(std::make_unique<HashJoinOperator>(
          std::move(probe), std::move(shared), fragment, ctx_));
    }

    case PlanKind::kAggregate: {
      if (options_.dop > 1 && forced_scan_source_ == nullptr) {
        VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr parallel,
                                TryParallelAggregate(plan));
        if (parallel != nullptr) return parallel;
      }
      VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildBatch(plan->children[0], {}));
      VSTORE_ASSIGN_OR_RETURN(
          std::vector<AggSpec> aggs,
          ResolveAggs(plan->children[0]->schema, plan->aggregates));
      if (plan->group_by.empty()) {
        return BatchOperatorPtr(std::make_unique<ScalarAggregateOperator>(
            std::move(child), std::move(aggs), ctx_));
      }
      HashAggregateOperator::Options agg_options;
      VSTORE_ASSIGN_OR_RETURN(
          agg_options.group_by,
          ResolveColumns(plan->children[0]->schema, plan->group_by));
      agg_options.aggregates = std::move(aggs);
      return BatchOperatorPtr(std::make_unique<HashAggregateOperator>(
          std::move(child), std::move(agg_options), ctx_));
    }

    case PlanKind::kSort: {
      VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildBatch(plan->children[0], {}));
      std::vector<SortKey> keys;
      for (const SortSpec& spec : plan->sort_keys) {
        int idx = plan->children[0]->schema.IndexOf(spec.column);
        if (idx < 0) {
          return Status::InvalidArgument("unknown sort column " + spec.column);
        }
        keys.push_back(SortKey{idx, spec.ascending});
      }
      return BatchOperatorPtr(std::make_unique<SortOperator>(
          std::move(child), std::move(keys), plan->limit, ctx_));
    }

    case PlanKind::kLimit: {
      VSTORE_ASSIGN_OR_RETURN(
          BatchOperatorPtr child,
          BuildBatch(plan->children[0], std::move(blooms)));
      return BatchOperatorPtr(
          std::make_unique<LimitOperator>(std::move(child), plan->limit, ctx_));
    }

    case PlanKind::kUnionAll: {
      std::vector<BatchOperatorPtr> children;
      for (const PlanPtr& c : plan->children) {
        VSTORE_ASSIGN_OR_RETURN(BatchOperatorPtr child, BuildBatch(c, {}));
        children.push_back(std::move(child));
      }
      return BatchOperatorPtr(
          std::make_unique<UnionAllOperator>(std::move(children), ctx_));
    }
  }
  return Status::Internal("unknown plan kind");
}

// Row-mode scan of a sharded table: drains each shard's row scan in shard
// order (row mode is the serial baseline, so there is no scatter here —
// just concatenation; shard pruning is a batch-mode optimization).
class RowConcatOperator final : public RowOperator {
 public:
  explicit RowConcatOperator(std::vector<RowOperatorPtr> children)
      : children_(std::move(children)) {
    VSTORE_CHECK(!children_.empty());
  }

  Status Open() override {
    current_ = 0;
    for (auto& child : children_) {
      VSTORE_RETURN_IF_ERROR(child->Open());
    }
    return Status::OK();
  }

  Result<bool> Next(std::vector<Value>* row) override {
    while (current_ < children_.size()) {
      VSTORE_ASSIGN_OR_RETURN(bool has_row, children_[current_]->Next(row));
      if (has_row) return true;
      ++current_;
    }
    return false;
  }

  void Close() override {
    for (auto& child : children_) child->Close();
  }

  const Schema& output_schema() const override {
    return children_.front()->output_schema();
  }
  std::string name() const override { return "RowConcat"; }

 private:
  std::vector<RowOperatorPtr> children_;
  size_t current_ = 0;
};

Result<RowOperatorPtr> Lowering::BuildRow(const PlanPtr& plan) {
  switch (plan->kind) {
    case PlanKind::kScan: {
      const Catalog::Entry* entry = catalog_.Find(plan->table);
      if (entry == nullptr) {
        return Status::NotFound("unknown table " + plan->table);
      }
      RowOperatorPtr scan;
      if (entry->has_sharded_table()) {
        std::vector<RowOperatorPtr> shard_scans;
        const ShardedTable* sharded = entry->sharded_table;
        for (int i = 0; i < sharded->num_shards(); ++i) {
          shard_scans.push_back(
              std::make_unique<ColumnStoreRowScanOperator>(sharded->shard(i)));
        }
        scan = std::make_unique<RowConcatOperator>(std::move(shard_scans));
      } else if (entry->has_system_view()) {
        VSTORE_ASSIGN_OR_RETURN(TableData materialized,
                                entry->system_view->Materialize(catalog_));
        scan = std::make_unique<MemTableRowScanOperator>(
            std::make_shared<const TableData>(std::move(materialized)),
            plan->table);
      } else if (entry->has_row_store()) {
        scan = std::make_unique<RowStoreScanOperator>(entry->row_store);
      } else {
        scan =
            std::make_unique<ColumnStoreRowScanOperator>(entry->column_store);
      }
      // Pushed predicates run as row filters (row mode has no segment
      // elimination — that asymmetry is the point of experiment E3).
      for (const NamedScanPredicate& pred : plan->pushed_predicates) {
        scan = std::make_unique<RowFilterOperator>(
            std::move(scan), PredicateToExpr(entry->schema(), pred));
      }
      if (!plan->scan_columns.empty()) {
        // Column pruning only narrows the schema here: a row store still
        // materializes whole rows first (the asymmetry columnar storage
        // exploits).
        std::vector<ExprPtr> exprs;
        for (const std::string& name : plan->scan_columns) {
          exprs.push_back(expr::Column(entry->schema(), name));
        }
        scan = std::make_unique<RowProjectOperator>(
            std::move(scan), std::move(exprs), plan->scan_columns);
      }
      return scan;
    }

    case PlanKind::kFilter: {
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              BuildRow(plan->children[0]));
      return RowOperatorPtr(std::make_unique<RowFilterOperator>(
          std::move(child), plan->predicate));
    }

    case PlanKind::kProject: {
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              BuildRow(plan->children[0]));
      return RowOperatorPtr(std::make_unique<RowProjectOperator>(
          std::move(child), plan->exprs, plan->names));
    }

    case PlanKind::kJoin: {
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr probe,
                              BuildRow(plan->children[0]));
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr build,
                              BuildRow(plan->children[1]));
      RowHashJoinOperator::Options join_options;
      join_options.join_type = plan->join_type;
      VSTORE_ASSIGN_OR_RETURN(
          join_options.probe_keys,
          ResolveColumns(plan->children[0]->schema, plan->left_keys));
      VSTORE_ASSIGN_OR_RETURN(
          join_options.build_keys,
          ResolveColumns(plan->children[1]->schema, plan->right_keys));
      return RowOperatorPtr(std::make_unique<RowHashJoinOperator>(
          std::move(probe), std::move(build), std::move(join_options)));
    }

    case PlanKind::kAggregate: {
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              BuildRow(plan->children[0]));
      RowHashAggregateOperator::Options agg_options;
      VSTORE_ASSIGN_OR_RETURN(
          agg_options.group_by,
          ResolveColumns(plan->children[0]->schema, plan->group_by));
      VSTORE_ASSIGN_OR_RETURN(
          agg_options.aggregates,
          ResolveAggs(plan->children[0]->schema, plan->aggregates));
      return RowOperatorPtr(std::make_unique<RowHashAggregateOperator>(
          std::move(child), std::move(agg_options)));
    }

    case PlanKind::kSort: {
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              BuildRow(plan->children[0]));
      std::vector<SortKey> keys;
      for (const SortSpec& spec : plan->sort_keys) {
        int idx = plan->children[0]->schema.IndexOf(spec.column);
        if (idx < 0) {
          return Status::InvalidArgument("unknown sort column " + spec.column);
        }
        keys.push_back(SortKey{idx, spec.ascending});
      }
      return RowOperatorPtr(std::make_unique<RowSortOperator>(
          std::move(child), std::move(keys), plan->limit));
    }

    case PlanKind::kLimit: {
      VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              BuildRow(plan->children[0]));
      return RowOperatorPtr(
          std::make_unique<RowLimitOperator>(std::move(child), plan->limit));
    }

    case PlanKind::kUnionAll:
      return Status::Unimplemented("row-mode UNION ALL");
  }
  return Status::Internal("unknown plan kind");
}

bool AllScansHaveColumnStores(const Catalog& catalog, const PlanPtr& plan) {
  if (plan->kind == PlanKind::kScan) {
    const Catalog::Entry* entry = catalog.Find(plan->table);
    // System views are batch-capable: their materialized scan is columnar.
    return entry != nullptr &&
           (entry->has_column_store() || entry->has_sharded_table() ||
            entry->has_system_view());
  }
  for (const PlanPtr& child : plan->children) {
    if (!AllScansHaveColumnStores(catalog, child)) return false;
  }
  return true;
}

}  // namespace

Result<PhysicalPlan> CreatePhysicalPlan(const Catalog& catalog,
                                        const PlanPtr& plan, ExecContext* ctx,
                                        const PhysicalPlanOptions& options) {
  PhysicalPlan physical;
  Lowering lowering(catalog, ctx, options, &physical);

  bool batch = options.mode == ExecutionMode::kBatch ||
               (options.mode == ExecutionMode::kAuto &&
                AllScansHaveColumnStores(catalog, plan));
  if (batch) {
    VSTORE_ASSIGN_OR_RETURN(physical.root, lowering.BuildBatch(plan, {}));
  } else {
    VSTORE_ASSIGN_OR_RETURN(RowOperatorPtr root, lowering.BuildRow(plan));
    physical.root = std::make_unique<RowToBatchAdapter>(std::move(root), ctx);
  }
  return physical;
}

}  // namespace vstore
