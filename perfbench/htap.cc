// htap_trickle: an open-loop writer trickles seeded DML into the durable
// lineitem while the dop-4 query stream reads it and tuple-mover passes
// (with their checkpoint hook) compress its deltas; the run ends with a
// restart through DurableTable::Open.

#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <thread>

#include "storage/tuple_mover.h"
#include "workloads.h"

namespace perfbench {

using vstore::ColumnStoreTable;
using vstore::RowId;
using vstore::TableData;
using vstore::Value;

namespace {

// The writer's traffic follows the TPC-H refresh functions (TPC-H
// specification, clause 2.5): RF1 inserts new orders with their lineitems,
// RF2 deletes as many old orders with theirs. So lineitem gains and loses
// rows at the same rate, rows arrive one order's lineitems at a time (1-7,
// as dbgen draws them), and deletes remove whole bulk-loaded orders. TPC-H
// has no updates; the issue's Update is added as a third statement kind
// that rewrites a row the writer inserted, which moves no row count.
//
// Each statement is one of the three, with equal chance: InsertBatch of one
// order's new lineitems, Delete of each lineitem of one bulk-loaded order,
// or Update of one recently inserted row. One statement is sent every
// kDmlIntervalUs (400/s), so about 133 orders go in and 133 come out per
// second: one RF1/RF2 pair (SF x 1500 = 300 orders each way at SF 0.2)
// every 2.25 s. The TPC-H throughput test runs one refresh pair per
// 22-query stream; at the ~17 queries/s the dop-4 stream completes here
// this is one pair per ~38 queries. That rate is an assumption: TPC-H ties
// refreshes to query streams, not to a clock, and the open loop needs a
// fixed schedule.
constexpr int64_t kDmlIntervalUs = 2500;
// The query client's dop, as in olap_dop4. At dop 1 the stream ran on one
// vCPU at a time and inherited that vCPU's speed, which on shared hosts
// halves and recovers for stretches of seconds; its medians did not repeat
// from run to run. At dop 4 each query spreads over every vCPU.
constexpr int kQueryDop = 4;
constexpr int64_t kMaxLinesPerOrder = 7;
// A tuple-mover pass runs each time another row group's worth of rows has
// been committed into delta stores (net of deletes there), plus slack, so
// each pass normally finds one newly closed store.
constexpr int64_t kMoverEveryRows = kTrickleRowGroupSize;
constexpr int64_t kMoverSlackRows = kTrickleRowGroupSize / 16;
// Recently inserted row ids kept as update victims.
constexpr size_t kVictimPool = 4096;

int64_t UserBytes(const std::vector<Value>& row) {
  int64_t bytes = 0;
  for (const Value& v : row) {
    bytes += v.type() == vstore::DataType::kString
                 ? static_cast<int64_t>(v.str().size())
                 : (v.type() == vstore::DataType::kDate32 ? 4 : 8);
  }
  return bytes;
}

// Triggers mover passes by committed-row count.
struct MoverSync {
  std::mutex mu;
  std::condition_variable cv;
  int64_t delta_rows = 0;    // guarded by mu; committed, net of deletes
  bool writer_done = false;  // guarded by mu
  // Passes begun; a RowId minted before a pass began may be retired by it.
  std::atomic<int64_t> passes_started{0};
};

// What the writer keeps of the generated tables, so that they can be
// dropped before the measured phase (their copies would otherwise count in
// rss_peak_mb): each order's key, date and first lineitem (dbgen emits an
// order's lineitems together, in order), and the part and supplier counts.
struct OrderIndex {
  std::vector<int64_t> keys;
  std::vector<int32_t> dates;
  std::vector<int64_t> first_line;  // one past the end for the last order
  int64_t parts = 0;
  int64_t suppliers = 0;
};

vstore::Result<OrderIndex> IndexOrders(const vstore::tpch::Tables& t) {
  OrderIndex index;
  const vstore::ColumnData& order_keys = t.orders.column(0);
  const vstore::ColumnData& order_dates = t.orders.column(4);
  const vstore::ColumnData& line_keys = t.lineitem.column(0);
  for (int64_t o = 0; o < t.orders.num_rows(); ++o) {
    index.keys.push_back(order_keys.GetInt64(o));
    index.dates.push_back(static_cast<int32_t>(order_dates.GetInt64(o)));
  }
  int64_t line = 0;
  for (int64_t key : index.keys) {
    index.first_line.push_back(line);
    const int64_t first = line;
    while (line < t.lineitem.num_rows() && line_keys.GetInt64(line) == key) {
      ++line;
    }
    if (line == first) {
      return vstore::Status::Internal("order " + std::to_string(key) +
                                      " has no lineitems in load order");
    }
  }
  if (line != t.lineitem.num_rows()) {
    return vstore::Status::Internal("lineitem is not grouped by order");
  }
  index.first_line.push_back(line);
  index.parts = t.part.num_rows();
  index.suppliers = t.supplier.num_rows();
  return index;
}

// The writer's view of lineitem: which base rows it deleted and every row
// it inserted, so the final rows are known without asking the engine.
struct DmlModel {
  DmlModel(const vstore::Schema& schema, int64_t base_rows)
      : base_deleted(static_cast<size_t>(base_rows), 0), inserted(schema) {}

  std::vector<uint8_t> base_deleted;
  TableData inserted;
  std::vector<uint8_t> inserted_dead;
  int64_t rows_inserted = 0;  // successful, including update new versions
  int64_t rows_deleted = 0;   // successful, including update old versions

  // `ref` >= 0 is a base row index, < 0 an inserted row.
  void Kill(int64_t ref) {
    if (ref >= 0) {
      base_deleted[static_cast<size_t>(ref)] = 1;
    } else {
      inserted_dead[static_cast<size_t>(-ref - 1)] = 1;
    }
    ++rows_deleted;
  }
  int64_t Add(const std::vector<Value>& row) {
    inserted.AppendRow(row);
    inserted_dead.push_back(0);
    ++rows_inserted;
    return -inserted.num_rows();
  }
  int64_t Live() const {
    int64_t live = 0;
    for (uint8_t d : base_deleted) live += d == 0;
    for (uint8_t d : inserted_dead) live += d == 0;
    return live;
  }
  // `base` is the bulk-loaded lineitem, regenerated from the seed.
  TableData FinalRows(const TableData& base) const {
    TableData out(base.schema());
    AppendLive(base, base_deleted, &out);
    AppendLive(inserted, inserted_dead, &out);
    return out;
  }

 private:
  // Column-wise copy of the rows of `src` not marked dead.
  static void AppendLive(const TableData& src, const std::vector<uint8_t>& dead,
                         TableData* out) {
    for (int c = 0; c < src.num_columns(); ++c) {
      const vstore::ColumnData& from = src.column(c);
      vstore::ColumnData& to = out->column(c);
      for (int64_t i = 0; i < src.num_rows(); ++i) {
        if (dead[static_cast<size_t>(i)]) continue;
        if (from.IsNull(i)) {
          to.AppendNull();
          continue;
        }
        switch (vstore::PhysicalTypeOf(from.type())) {
          case vstore::PhysicalType::kInt64:
            to.AppendInt64(from.GetInt64(i));
            break;
          case vstore::PhysicalType::kDouble:
            to.AppendDouble(from.GetDouble(i));
            break;
          case vstore::PhysicalType::kString:
            to.AppendString(from.GetString(i));
            break;
        }
      }
    }
  }
};

struct Victim {
  RowId id = 0;
  int64_t ref = 0;          // inserted row (< 0) in the model
  int64_t minted_pass = 0;  // passes_started when the id was handed out
};

struct WriterStats {
  std::vector<double> dml_us;  // from the statement's scheduled send time
  std::vector<double> insert_us, delete_us, update_us;  // the call itself
  std::vector<double> late_ms;
  int64_t statements = 0;
  int64_t victim_attempts = 0;  // Delete and Update calls
  int64_t stale_ids = 0;
  double user_bytes = 0;
};

// A new lineitem for an existing order, drawn like dbgen draws them.
std::vector<Value> NewLineitem(const OrderIndex& orders, int64_t order,
                               int64_t line_number, vstore::Random* rng) {
  static const char* kInstructions[] = {"DELIVER IN PERSON", "COLLECT COD",
                                        "NONE", "TAKE BACK RETURN"};
  static const char* kModes[] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                                 "TRUCK",   "MAIL", "FOB"};
  const int32_t kCurrentDate = vstore::DaysFromCivil(1995, 6, 17);
  const int32_t orderdate = orders.dates[static_cast<size_t>(order)];
  const int64_t partkey = rng->Uniform(1, orders.parts);
  const int64_t quantity = rng->Uniform(1, 50);
  const int64_t retail_cents =
      90000 + ((partkey / 10) % 20001) + 100 * (partkey % 1000);
  const int32_t shipdate =
      orderdate + static_cast<int32_t>(rng->Uniform(1, 121));
  const int32_t commitdate =
      orderdate + static_cast<int32_t>(rng->Uniform(30, 90));
  const int32_t receiptdate =
      shipdate + static_cast<int32_t>(rng->Uniform(1, 30));
  const char* returnflag =
      receiptdate <= kCurrentDate ? (rng->NextBool(0.5) ? "R" : "A") : "N";
  return {Value::Int64(orders.keys[static_cast<size_t>(order)]),
          Value::Int64(partkey),
          Value::Int64(rng->Uniform(1, orders.suppliers)),
          Value::Int64(line_number),
          Value::Double(static_cast<double>(quantity)),
          Value::Double(static_cast<double>(quantity * retail_cents) / 100.0),
          Value::Double(static_cast<double>(rng->Uniform(0, 10)) / 100.0),
          Value::Double(static_cast<double>(rng->Uniform(0, 8)) / 100.0),
          Value::String(returnflag),
          Value::String(shipdate > kCurrentDate ? "O" : "F"),
          Value::Date32(shipdate),
          Value::Date32(commitdate),
          Value::Date32(receiptdate),
          Value::String(kInstructions[rng->Uniform(0, 3)]),
          Value::String(kModes[rng->Uniform(0, 6)]),
          Value::String("trickle")};
}

// The updated version of a row: one more unit, priced at the same unit
// price.
std::vector<Value> Updated(const std::vector<Value>& row) {
  std::vector<Value> out = row;
  const double quantity = row[4].dbl();
  const double next = quantity >= 50 ? 1 : quantity + 1;
  out[4] = Value::Double(next);
  out[5] = Value::Double(std::round(row[5].dbl() / quantity * next * 100.0) /
                         100.0);
  out[15] = Value::String("updated");
  return out;
}

class Writer {
 public:
  Writer(ColumnStoreTable* table, const OrderIndex& orders, DmlModel* model,
         MoverSync* sync, SpanLog* spans, Outcome* outcome, uint64_t seed)
      : table_(table),
        orders_(orders),
        model_(model),
        sync_(sync),
        spans_(spans),
        outcome_(outcome),
        rng_(seed ^ 0x444d4c),
        order_deleted_(orders.keys.size(), 0) {
    // Only orders whose lineitems all sit in full bulk-loaded row groups
    // are deleted: those rows are at (group, offset) in load order,
    // generation 0 (checked on a sample before the run starts).
    const int64_t full_group_rows =
        static_cast<int64_t>(model->base_deleted.size()) /
        kTrickleRowGroupSize * kTrickleRowGroupSize;
    while (deletable_orders_ < static_cast<int64_t>(orders.keys.size()) &&
           orders.first_line[static_cast<size_t>(deletable_orders_) + 1] <=
               full_group_rows) {
      ++deletable_orders_;
    }
  }

  void Run(Clock::time_point deadline) {
    const Clock::time_point t0 = Clock::now();
    for (int64_t i = 0;; ++i) {
      const Clock::time_point due = t0 + std::chrono::microseconds(
                                             i * kDmlIntervalUs);
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      stats_.late_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
      int64_t kind = rng_.Uniform(0, 2);
      if (kind == 2 && recent_.empty()) kind = 0;  // nothing to update yet
      const int64_t request = spans_->NewRequest();
      ScopedSpan span(spans_, "dml", -1, request);
      outcome_->Attempt();
      ++stats_.statements;
      const int64_t delta_rows = kind == 0   ? InsertOrder(span.id(), request)
                                 : kind == 1 ? DeleteOrder(span.id(), request)
                                             : Update(span.id(), request);
      stats_.dml_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - due)
              .count());
      if (delta_rows != 0) {
        std::lock_guard<std::mutex> lock(sync_->mu);
        sync_->delta_rows += delta_rows;
      }
      sync_->cv.notify_one();
    }
  }

  const WriterStats& stats() const { return stats_; }

 private:
  // Each returns how many rows the statement committed into delta stores,
  // net of the delta rows it deleted.

  // RF1: one order's worth of new lineitems, in one InsertBatch.
  int64_t InsertOrder(int64_t parent, int64_t request) {
    const int64_t order =
        rng_.Uniform(0, static_cast<int64_t>(orders_.keys.size()) - 1);
    const int64_t lines = rng_.Uniform(1, kMaxLinesPerOrder);
    std::vector<std::vector<Value>> rows;
    std::vector<const std::vector<Value>*> ptrs;
    for (int64_t i = 0; i < lines; ++i) {
      // Numbered after the order's bulk-loaded lines (1-7).
      rows.push_back(NewLineitem(orders_, order, kMaxLinesPerOrder + 1 + i,
                                 &rng_));
    }
    for (const auto& row : rows) ptrs.push_back(&row);
    const int64_t minted = sync_->passes_started.load();
    const Clock::time_point t0 = Clock::now();
    vstore::Result<std::vector<RowId>> ids = [&] {
      ScopedSpan span(spans_, "ColumnStoreTable::InsertBatch", parent,
                      request);
      return table_->InsertBatch(ptrs);
    }();
    stats_.insert_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (!ids.ok()) {
      outcome_->Fail("InsertBatch: " + ids.status().ToString());
      return 0;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      stats_.user_bytes += static_cast<double>(UserBytes(rows[i]));
      AddVictim({ids.value()[i], model_->Add(rows[i]), minted});
    }
    return lines;
  }

  // RF2: every lineitem of one bulk-loaded order, one Delete each.
  int64_t DeleteOrder(int64_t parent, int64_t request) {
    int64_t order = rng_.Uniform(0, deletable_orders_ - 1);
    while (order_deleted_[static_cast<size_t>(order)]) {
      order = rng_.Uniform(0, deletable_orders_ - 1);
    }
    order_deleted_[static_cast<size_t>(order)] = 1;
    const int64_t end = orders_.first_line[static_cast<size_t>(order) + 1];
    for (int64_t ref = orders_.first_line[static_cast<size_t>(order)];
         ref < end; ++ref) {
      ++stats_.victim_attempts;
      const Clock::time_point t0 = Clock::now();
      vstore::Status st;
      {
        ScopedSpan span(spans_, "ColumnStoreTable::Delete", parent, request);
        st = table_->Delete(vstore::MakeCompressedRowId(
            ref / kTrickleRowGroupSize, ref % kTrickleRowGroupSize));
      }
      stats_.delete_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      if (st.IsNotFound() && sync_->passes_started.load() > 0) {
        // A mover pass rebuilt the group: the documented RowId contract.
        ++stats_.stale_ids;
        continue;
      }
      if (!st.ok()) {
        outcome_->Fail("Delete: " + st.ToString());
        continue;
      }
      stats_.user_bytes += 8;  // the RowId
      model_->Kill(ref);
    }
    return 0;  // base rows are not in delta stores
  }

  // One recently inserted row gets one more unit.
  int64_t Update(int64_t parent, int64_t request) {
    const size_t pool_index = static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(recent_.size()) - 1));
    const Victim v = recent_[pool_index];
    recent_[pool_index] = recent_.back();
    recent_.pop_back();
    ++stats_.victim_attempts;
    const std::vector<Value> new_row =
        Updated(model_->inserted.GetRow(-v.ref - 1));
    const int64_t minted = sync_->passes_started.load();
    const Clock::time_point t0 = Clock::now();
    vstore::Result<RowId> r = [&] {
      ScopedSpan span(spans_, "ColumnStoreTable::Update", parent, request);
      return table_->Update(v.id, new_row);
    }();
    stats_.update_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (r.status().IsNotFound() &&
        sync_->passes_started.load() > v.minted_pass) {
      // A mover pass retired the id: the documented RowId contract.
      ++stats_.stale_ids;
      return 0;
    }
    if (!r.ok()) {
      outcome_->Fail("Update: " + r.status().ToString());
      return 0;
    }
    stats_.user_bytes += 8 + static_cast<double>(UserBytes(new_row));
    model_->Kill(v.ref);
    AddVictim({r.value(), model_->Add(new_row), minted});
    return 1 - (vstore::IsDeltaRowId(v.id) ? 1 : 0);
  }

  void AddVictim(const Victim& v) {
    if (recent_.size() < kVictimPool) {
      recent_.push_back(v);
    } else {
      recent_[static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(kVictimPool) - 1))] = v;
    }
  }

  ColumnStoreTable* table_;
  const OrderIndex& orders_;
  DmlModel* model_;
  MoverSync* sync_;
  SpanLog* spans_;
  Outcome* outcome_;
  vstore::Random rng_;
  std::vector<uint8_t> order_deleted_;
  int64_t deletable_orders_ = 0;
  std::vector<Victim> recent_;
  WriterStats stats_;
};

struct MoverStats {
  std::vector<double> pass_ms;
  std::vector<double> checkpoint_ms;
  int64_t rows_moved = 0;
  int64_t installs = 0;
  int64_t conflicts = 0;
};

// Runs a pass each time kMoverEveryRows more rows have gone into delta
// stores, until the writer is done.
void RunMover(vstore::TupleMover* mover, MoverSync* sync, SpanLog* spans,
              Outcome* outcome, MoverStats* stats) {
  int64_t next_trigger = kMoverEveryRows + kMoverSlackRows;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(sync->mu);
      sync->cv.wait(lock, [&] {
        return sync->delta_rows >= next_trigger || sync->writer_done;
      });
      if (sync->delta_rows < next_trigger) return;  // writer done
      next_trigger += kMoverEveryRows;
    }
    sync->passes_started.fetch_add(1);
    outcome->Attempt();
    const int64_t request = spans->NewRequest();
    const Clock::time_point t0 = Clock::now();
    vstore::Result<int64_t> r = [&] {
      ScopedSpan span(spans, "TupleMover::RunOnce", -1, request);
      return mover->RunOnce();
    }();
    stats->pass_ms.push_back(MsSince(t0));
    if (!r.ok()) {
      outcome->Fail("mover pass: " + r.status().ToString());
      continue;
    }
    const vstore::TupleMover::PassStats pass = mover->last_pass();
    stats->rows_moved += pass.rows_moved;
    stats->installs += pass.stores_compressed + pass.groups_rebuilt;
    stats->conflicts += pass.conflicts;
  }
}

int64_t FileBytes(const vstore::DurableTable& durable) {
  int64_t bytes = 0;
  for (const auto& f : durable.Files()) bytes += f.bytes;
  return bytes;
}

}  // namespace

void RunHtap(const RunArgs& args, SpanLog* spans, RunOutput* out) {
  out->dop = kQueryDop;
  out->dml_per_s = 1e6 / static_cast<double>(kDmlIntervalUs);
  out->lineitem_row_group_size = kTrickleRowGroupSize;
  Clock::time_point phase = Clock::now();
  Outcome& outcome = out->outcome;
  const std::string dir = args.work_dir + "/lineitem";
  vstore::Result<Warehouse> built = RepeatedSetup(args, dir, spans, out);
  if (!built.ok()) {
    outcome.FailOperation("set-up: " + built.status().ToString());
    return;
  }
  Warehouse& w = built.value();
  ColumnStoreTable* lineitem = w.lineitem;
  const int64_t base_rows = lineitem->num_rows();
  MarkPhase("setup", &phase, out);

  const QueryParams params = RunParams(args.seed);

  vstore::Result<OrderIndex> orders = IndexOrders(w.tables);
  if (!orders.ok()) {
    outcome.FailOperation("order index: " + orders.status().ToString());
    return;
  }
  // The writer addresses base rows by (group, offset); check that mapping
  // on a sample before relying on it.
  vstore::Random rng(args.seed ^ 0x726f77);
  for (int i = 0; i < 16; ++i) {
    const int64_t ref = rng.Uniform(
        0, base_rows / kTrickleRowGroupSize * kTrickleRowGroupSize - 1);
    std::vector<Value> row;
    outcome.Attempt();
    vstore::Status st = lineitem->GetRow(
        vstore::MakeCompressedRowId(ref / kTrickleRowGroupSize,
                                    ref % kTrickleRowGroupSize),
        &row);
    if (!st.ok() || row != w.tables.lineitem.GetRow(ref)) {
      outcome.Fail("base row " + std::to_string(ref) +
                   " is not at its load-order RowId");
    }
  }
  if (outcome.failed() > 0) return;

  // The generated tables go before the measured phase, as in olap_*; the
  // final checks regenerate them from the seed.
  w.tables = vstore::tpch::Tables();
  const bool rss_reset = StartPeakRss();
  // Warm-up (status only: the oracle runs on the final rows).
  if (vstore::Result<Answers> warm = BatchAnswers(*w.catalog, params);
      !warm.ok()) {
    outcome.FailOperation("warm-up: " + warm.status().ToString());
    return;
  }

  MarkPhase("warm_up", &phase, out);

  DmlModel model(lineitem->schema(), base_rows);
  MoverSync sync;
  MoverStats mover_stats;
  vstore::TupleMover::Options mover_options;
  vstore::DurableTable* durable = w.durable;
  mover_options.checkpoint_hook = [&]() -> vstore::Status {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span(spans, "DurableTable::Checkpoint", -1,
                    spans->NewRequest());
    vstore::Status st = durable->Checkpoint();
    mover_stats.checkpoint_ms.push_back(MsSince(t0));
    return st;
  };
  // Destroyed right after the run: its hook points into the catalog.
  auto mover = std::make_unique<vstore::TupleMover>(lineitem, mover_options);
  Writer writer(lineitem, orders.value(), &model, &sync, spans, &outcome,
                args.seed);

  ClientOptions options;
  options.dop = kQueryDop;
  options.trace = args.trace;
  options.delta_table = lineitem;
  ClientResult r;
  const RegistrySnapshot reg0 = ReadRegistry();
  const int64_t files0 = FileBytes(*durable);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(args.seconds);
  {
    std::thread mover_thread(RunMover, mover.get(), &sync, spans, &outcome,
                             &mover_stats);
    std::thread writer_thread([&] {
      writer.Run(deadline);
      {
        std::lock_guard<std::mutex> lock(sync.mu);
        sync.writer_done = true;
      }
      sync.cv.notify_one();
    });
    RunQueryClient(*w.catalog, params, options, deadline, args.seed, spans,
                   &outcome, &r);
    writer_thread.join();
    mover_thread.join();
  }
  mover.reset();
  const RegistrySnapshot reg1 = ReadRegistry();
  const int64_t files1 = FileBytes(*durable);
  const double rss_mb = PeakRssMb();
  const double stored_bytes_per_row = StoredBytesPerRow(*w.catalog);
  MarkPhase("measure", &phase, out);

  // --- Checks over the final rows ----------------------------------------
  const vstore::tpch::Tables tables =
      vstore::tpch::Generate(kScaleFactor, args.seed);
  outcome.Attempt();
  if (tables.lineitem.num_rows() != base_rows) {
    outcome.Fail("regenerated lineitem has " +
                 std::to_string(tables.lineitem.num_rows()) +
                 " rows, loaded " + std::to_string(base_rows));
    return;
  }
  outcome.Attempt();
  const int64_t live = lineitem->num_rows();
  const int64_t expected_live =
      base_rows + model.rows_inserted - model.rows_deleted;
  if (live != expected_live || model.Live() != expected_live) {
    outcome.Fail("live rows " + std::to_string(live) + ", model " +
                 std::to_string(model.Live()) + ", base + inserted - deleted " +
                 std::to_string(expected_live));
  }
  Answers before;
  {
    const TableData final_rows = model.FinalRows(tables.lineitem);
    auto oracle = BuildOracleCatalog(tables, &final_rows);
    vstore::Result<Answers> expected =
        oracle.ok() ? OracleAnswers(*oracle.value(), params)
                    : vstore::Result<Answers>(oracle.status());
    vstore::Result<Answers> got = BatchAnswers(*w.catalog, params);
    outcome.Attempt();
    if (!expected.ok() || !got.ok()) {
      outcome.Fail("final answers: " +
                   (expected.ok() ? got.status() : expected.status())
                       .ToString());
    } else {
      CheckAnswers(got.value(), expected.value(), /*exact=*/false,
                   "final rows vs row-mode oracle", &outcome);
      before = std::move(got.value());
    }
  }

  MarkPhase("final_check", &phase, out);

  // --- Restart ------------------------------------------------------------
  w.catalog.reset();  // closes the WAL; lineitem/durable dangle from here
  auto catalog = std::make_unique<vstore::Catalog>();
  double recovery_s = 0;
  vstore::DurableTable::RecoveryStats recovery;
  outcome.Attempt();
  vstore::Status restart = LoadDimensions(tables, catalog.get());
  if (restart.ok()) {
    auto table = std::make_unique<ColumnStoreTable>(
        "lineitem", tables.lineitem.schema(),
        StoreOptions(kTrickleRowGroupSize));
    const Clock::time_point t0 = Clock::now();
    vstore::Result<std::unique_ptr<vstore::DurableTable>> reopened = [&] {
      ScopedSpan span(spans, "DurableTable::Open", -1, spans->NewRequest());
      return vstore::DurableTable::Open(dir, table.get());
    }();
    recovery_s = MsSince(t0) / 1e3;
    if (reopened.ok()) {
      recovery = reopened.value()->recovery_stats();
      if (table->num_rows() != live) {
        outcome.Fail("reopened lineitem has " +
                     std::to_string(table->num_rows()) + " rows, expected " +
                     std::to_string(live));
      }
      restart = catalog->AddDurableColumnStore(std::move(table),
                                               std::move(reopened.value()));
    } else {
      restart = reopened.status();
    }
  }
  if (!restart.ok()) {
    outcome.Fail("restart: " + restart.ToString());
  } else if (!before.empty()) {
    vstore::Result<Answers> after = BatchAnswers(*catalog, params);
    if (!after.ok()) {
      outcome.FailOperation("after restart: " + after.status().ToString());
    } else {
      CheckAnswers(after.value(), before, /*exact=*/true,
                   "reopened vs before restart", &outcome);
    }
  }
  catalog.reset();
  std::filesystem::remove_all(args.work_dir);
  MarkPhase("restart", &phase, out);

  // --- Metrics ------------------------------------------------------------
  const WriterStats& ws = writer.stats();
  const Summary dml = Summarize(ws.dml_us);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  ReportClient(args, r, reg0, reg1, params, stored_bytes_per_row, rss_mb,
               out);
  if (args.trace) {
    MetricSet& m = out->metrics;
    m.Add("storage.insert_p50_us", Quantile(ws.insert_us, 0.5), "us");
    m.Add("storage.insert_p99_us", Quantile(ws.insert_us, 0.99), "us");
    m.Add("storage.delete_p50_us", Quantile(ws.delete_us, 0.5), "us");
    m.Add("storage.delete_p99_us", Quantile(ws.delete_us, 0.99), "us");
    m.Add("storage.update_p50_us", Quantile(ws.update_us, 0.5), "us");
    m.Add("storage.update_p99_us", Quantile(ws.update_us, 0.99), "us");
    m.Add("storage.dml.stale_id_ratio",
          ratio(static_cast<double>(ws.stale_ids),
                static_cast<double>(ws.victim_attempts)),
          "ratio");
    m.Add("storage.wal.fsyncs", reg1.fsync_waits - reg0.fsync_waits, "count");
    m.Add("storage.wal.fsync_ms",
          (reg1.fsync_wait_ns - reg0.fsync_wait_ns) / 1e6, "ms");
    m.Add("storage.wal.bytes_per_user_byte",
          ratio(reg1.wal_bytes - reg0.wal_bytes, ws.user_bytes), "ratio");
    m.Add("storage.files_growth_per_user_byte",
          ratio(static_cast<double>(files1 - files0), ws.user_bytes), "ratio");
    m.Add("storage.lock_wait_ms", (reg1.lock_wait_ns - reg0.lock_wait_ns) / 1e6,
          "ms");
    double delta_sum = 0;
    for (double f : r.delta_fraction) delta_sum += f;
    m.Add("storage.delta_fraction",
          ratio(delta_sum, static_cast<double>(r.delta_fraction.size())),
          "ratio");
    m.Add("storage.mover.passes",
          static_cast<double>(mover_stats.pass_ms.size()), "count");
    m.Add("storage.mover.pass_ms", Median(mover_stats.pass_ms), "ms");
    m.Add("storage.mover.rows_moved",
          static_cast<double>(mover_stats.rows_moved), "rows");
    m.Add("storage.mover.conflict_ratio",
          ratio(static_cast<double>(mover_stats.conflicts),
                static_cast<double>(mover_stats.installs +
                                    mover_stats.conflicts)),
          "ratio");
    m.Add("storage.checkpoint_ms", Median(mover_stats.checkpoint_ms), "ms");
    m.Add("storage.recovery.records_replayed",
          static_cast<double>(recovery.wal_records_replayed), "count");
    m.Add("storage.recovery.epochs",
          static_cast<double>(recovery.wal_epochs_replayed), "count");
    m.Add("gen.late_p50_ms", Quantile(ws.late_ms, 0.5), "ms");
    m.Add("gen.late_p99_ms", Quantile(ws.late_ms, 0.99), "ms");
    m.Add("dml_p50_us", dml.median, "us");
    m.Add("dml_p99_us", dml.p99, "us");
    m.Add("recovery_s", recovery_s, "s");
  }
  out->report +=
      ",\"dml_us\":" + SummaryJson(dml) +
      ",\"insert_us\":" + SummaryJson(Summarize(ws.insert_us)) +
      ",\"delete_us\":" + SummaryJson(Summarize(ws.delete_us)) +
      ",\"update_us\":" + SummaryJson(Summarize(ws.update_us)) +
      ",\"gen_late_ms\":" + SummaryJson(Summarize(ws.late_ms)) +
      ",\"statements\":" + std::to_string(ws.statements) +
      ",\"stale_ids\":" + std::to_string(ws.stale_ids) +
      ",\"rows_inserted\":" + std::to_string(model.rows_inserted) +
      ",\"rows_deleted\":" + std::to_string(model.rows_deleted) +
      ",\"mover_passes\":" + std::to_string(mover_stats.pass_ms.size()) +
      ",\"mover_pass_ms\":" + SummaryJson(Summarize(mover_stats.pass_ms)) +
      ",\"checkpoint_ms\":" +
      SummaryJson(Summarize(mover_stats.checkpoint_ms)) +
      ",\"recovery_s\":" + JsonNumber(recovery_s) +
      ",\"recovery_records\":" + std::to_string(recovery.wal_records_replayed) +
      ",\"rss_peak_reset\":" + (rss_reset ? "true" : "false");
}

}  // namespace perfbench
