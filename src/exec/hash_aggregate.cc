#include "exec/hash_aggregate.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "exec/spill.h"

namespace vstore {

namespace {

// Internal accumulator representation chosen per aggregate.
enum class StateKind { kSumInt, kSumDouble, kMinMaxInt, kMinMaxDouble,
                       kMinMaxString, kCountOnly };

StateKind StateKindFor(AggFn fn, DataType input) {
  switch (fn) {
    case AggFn::kCount:
    case AggFn::kCountStar:
      return StateKind::kCountOnly;
    case AggFn::kAvg:
      return StateKind::kSumDouble;
    case AggFn::kSum:
      return input == DataType::kDouble ? StateKind::kSumDouble
                                        : StateKind::kSumInt;
    case AggFn::kMin:
    case AggFn::kMax:
      switch (PhysicalTypeOf(input)) {
        case PhysicalType::kString:
          return StateKind::kMinMaxString;
        case PhysicalType::kDouble:
          return StateKind::kMinMaxDouble;
        case PhysicalType::kInt64:
          return StateKind::kMinMaxInt;
      }
  }
  return StateKind::kCountOnly;
}

// The typed $value column for a partial aggregate. Min/max keep the
// original logical type so the final stage preserves it (e.g. DATE32).
DataType PartialValueType(AggFn fn, DataType input) {
  switch (StateKindFor(fn, input)) {
    case StateKind::kSumDouble:
    case StateKind::kMinMaxDouble:
      return DataType::kDouble;
    case StateKind::kMinMaxString:
      return DataType::kString;
    case StateKind::kMinMaxInt:
      return input;
    default:
      return DataType::kInt64;
  }
}

struct StateRef {
  uint8_t* base;
  int64_t& acc_i() { return *reinterpret_cast<int64_t*>(base); }
  double& acc_d() { return *reinterpret_cast<double*>(base); }
  uint64_t& aux() { return *reinterpret_cast<uint64_t*>(base + 8); }
  int64_t& count() { return *reinterpret_cast<int64_t*>(base + 16); }
};

}  // namespace

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
      return "SUM";
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kCountStar:
      return "COUNT(*)";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
    case AggFn::kAvg:
      return "AVG";
  }
  return "?";
}

DataType AggOutputType(AggFn fn, DataType input) {
  switch (fn) {
    case AggFn::kCount:
    case AggFn::kCountStar:
      return DataType::kInt64;
    case AggFn::kAvg:
      return DataType::kDouble;
    case AggFn::kSum:
      return input == DataType::kDouble ? DataType::kDouble
                                        : DataType::kInt64;
    case AggFn::kMin:
    case AggFn::kMax:
      return input;
  }
  return DataType::kInt64;
}

Schema HashAggregateOperator::PartialSchema(
    const Schema& input, const std::vector<int>& group_by,
    const std::vector<AggSpec>& aggregates) {
  std::vector<Field> fields;
  for (int k : group_by) fields.push_back(input.field(k));
  for (const AggSpec& spec : aggregates) {
    DataType input_type = spec.column >= 0 ? input.field(spec.column).type
                                           : DataType::kInt64;
    fields.push_back(
        Field{spec.name + "$value", PartialValueType(spec.fn, input_type),
              true});
    fields.push_back(Field{spec.name + "$count", DataType::kInt64, false});
  }
  return Schema(std::move(fields));
}

HashAggregateOperator::HashAggregateOperator(BatchOperatorPtr input,
                                             Options options, ExecContext* ctx)
    : input_(std::move(input)), options_(std::move(options)), ctx_(ctx) {
  const Schema& in = input_->output_schema();
  const size_t num_keys = options_.group_by.size();
  const size_t num_aggs = options_.aggregates.size();

  std::vector<Field> key_fields, out_fields;
  for (int k : options_.group_by) {
    key_fields.push_back(in.field(k));
    out_fields.push_back(in.field(k));
    key_indices_.push_back(static_cast<int>(key_indices_.size()));
  }

  if (options_.phase == AggPhase::kFinal) {
    // Input is a partial schema: keys at 0..k-1, (value, count) pairs after.
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggSpec& spec = options_.aggregates[a];
      int value_col = static_cast<int>(num_keys + 2 * a);
      VSTORE_CHECK(spec.column == value_col);
      DataType value_type = in.field(value_col).type;
      out_fields.push_back(
          Field{spec.name, AggOutputType(spec.fn, value_type), true});
      state_kinds_.push_back(
          static_cast<uint8_t>(StateKindFor(spec.fn, value_type)));
    }
    partial_schema_ = in;  // spills reuse the incoming layout
  } else {
    for (const AggSpec& spec : options_.aggregates) {
      DataType input_type = spec.column >= 0 ? in.field(spec.column).type
                                             : DataType::kInt64;
      out_fields.push_back(
          Field{spec.name, AggOutputType(spec.fn, input_type), true});
      state_kinds_.push_back(
          static_cast<uint8_t>(StateKindFor(spec.fn, input_type)));
    }
    partial_schema_ =
        PartialSchema(in, options_.group_by, options_.aggregates);
  }

  key_schema_ = Schema(std::move(key_fields));
  output_schema_ = options_.phase == AggPhase::kPartial
                       ? partial_schema_
                       : Schema(std::move(out_fields));
  key_format_ = std::make_unique<RowFormat>(key_schema_);
  if (ctx_ != nullptr && ctx_->memory_tracker != nullptr) {
    mem_ = std::make_unique<MemoryTracker>(name(), "operator",
                                           ctx_->memory_tracker);
    pressure_listener_ = ctx_->memory_tracker->AddPressureListener(
        [this] { pressure_.store(true, std::memory_order_relaxed); });
  }
}

HashAggregateOperator::~HashAggregateOperator() {
  Close();
  if (pressure_listener_ != 0) {
    ctx_->memory_tracker->RemovePressureListener(pressure_listener_);
  }
}

void HashAggregateOperator::ResetAggState(int64_t expected_rows) {
  entries_.clear();
  arena_ = std::make_unique<Arena>();
  arena_->SetMemoryTracker(mem_.get());
  table_ = std::make_unique<SerializedRowHashTable>(expected_rows);
  table_->SetMemoryTracker(mem_.get());
}

bool HashAggregateOperator::UnderMemoryPressure(int64_t local_budget) const {
  if (local_budget > 0 &&
      static_cast<int64_t>(arena_->bytes_allocated()) > local_budget) {
    return true;
  }
  MemoryTracker* query = ctx_ != nullptr ? ctx_->memory_tracker : nullptr;
  if (query == nullptr) return false;
  if (pressure_.exchange(false, std::memory_order_relaxed)) return true;
  return query->over_budget();
}

std::string HashAggregateOperator::name() const {
  switch (options_.phase) {
    case AggPhase::kComplete:
      return "HashAggregate";
    case AggPhase::kPartial:
      return "HashAggregate(partial)";
    case AggPhase::kFinal:
      return "HashAggregate(final)";
  }
  return "HashAggregate";
}

void HashAggregateOperator::AppendProfileCounters(
    OperatorProfile* node) const {
  node->counters.push_back({"rows_aggregated", rows_aggregated_});
  node->counters.push_back({"groups", groups_});
  if (spill_flushes_ > 0) {
    node->counters.push_back({"spill_flushes", spill_flushes_});
    node->counters.push_back({"rows_spilled", rows_spilled_});
  }
}

void HashAggregateOperator::InitState(uint8_t* state) const {
  std::memset(state, 0, kStateSlot * options_.aggregates.size());
}

void HashAggregateOperator::UpdateStateFromBatch(uint8_t* state,
                                                 const Batch& batch,
                                                 int64_t i) {
  for (size_t a = 0; a < options_.aggregates.size(); ++a) {
    const AggSpec& spec = options_.aggregates[a];
    StateRef s{state + a * kStateSlot};
    if (spec.fn == AggFn::kCountStar) {
      ++s.count();
      continue;
    }
    const ColumnVector& cv = batch.column(spec.column);
    if (!cv.validity()[i]) continue;
    switch (static_cast<StateKind>(state_kinds_[a])) {
      case StateKind::kCountOnly:
        ++s.count();
        break;
      case StateKind::kSumInt:
        s.acc_i() += cv.ints()[i];
        ++s.count();
        break;
      case StateKind::kSumDouble:
        s.acc_d() += cv.physical_type() == PhysicalType::kDouble
                         ? cv.doubles()[i]
                         : static_cast<double>(cv.ints()[i]);
        ++s.count();
        break;
      case StateKind::kMinMaxInt: {
        int64_t v = cv.ints()[i];
        if (s.count() == 0 || (spec.fn == AggFn::kMin ? v < s.acc_i()
                                                      : v > s.acc_i())) {
          s.acc_i() = v;
        }
        ++s.count();
        break;
      }
      case StateKind::kMinMaxDouble: {
        double v = cv.doubles()[i];
        if (s.count() == 0 || (spec.fn == AggFn::kMin ? v < s.acc_d()
                                                      : v > s.acc_d())) {
          s.acc_d() = v;
        }
        ++s.count();
        break;
      }
      case StateKind::kMinMaxString: {
        std::string_view v = cv.strings()[i];
        std::string_view cur(reinterpret_cast<const char*>(s.acc_i()),
                             s.aux());
        if (s.count() == 0 ||
            (spec.fn == AggFn::kMin ? v < cur : v > cur)) {
          std::string_view stable = arena_->CopyString(v);
          s.acc_i() = reinterpret_cast<int64_t>(stable.data());
          s.aux() = stable.size();
        }
        ++s.count();
        break;
      }
    }
  }
}

void HashAggregateOperator::UpdateStateFromPartialBatch(uint8_t* state,
                                                        const Batch& batch,
                                                        int64_t i) {
  const size_t num_keys = key_indices_.size();
  for (size_t a = 0; a < options_.aggregates.size(); ++a) {
    const AggSpec& spec = options_.aggregates[a];
    StateRef s{state + a * kStateSlot};
    const ColumnVector& value_cv =
        batch.column(static_cast<int>(num_keys + 2 * a));
    const ColumnVector& count_cv =
        batch.column(static_cast<int>(num_keys + 2 * a + 1));
    int64_t count = count_cv.ints()[i];
    if (count == 0) continue;
    switch (static_cast<StateKind>(state_kinds_[a])) {
      case StateKind::kCountOnly:
        break;
      case StateKind::kSumInt:
        s.acc_i() += value_cv.ints()[i];
        break;
      case StateKind::kSumDouble:
        s.acc_d() += value_cv.doubles()[i];
        break;
      case StateKind::kMinMaxInt: {
        int64_t v = value_cv.ints()[i];
        if (s.count() == 0 || (spec.fn == AggFn::kMin ? v < s.acc_i()
                                                      : v > s.acc_i())) {
          s.acc_i() = v;
        }
        break;
      }
      case StateKind::kMinMaxDouble: {
        double v = value_cv.doubles()[i];
        if (s.count() == 0 || (spec.fn == AggFn::kMin ? v < s.acc_d()
                                                      : v > s.acc_d())) {
          s.acc_d() = v;
        }
        break;
      }
      case StateKind::kMinMaxString: {
        std::string_view v = value_cv.strings()[i];
        std::string_view cur(reinterpret_cast<const char*>(s.acc_i()),
                             s.aux());
        if (s.count() == 0 ||
            (spec.fn == AggFn::kMin ? v < cur : v > cur)) {
          std::string_view stable = arena_->CopyString(v);
          s.acc_i() = reinterpret_cast<int64_t>(stable.data());
          s.aux() = stable.size();
        }
        break;
      }
    }
    s.count() += count;
  }
}

namespace {

// GROUP BY key equality between two serialized rows: nulls compare equal
// (one null group) and doubles by bit pattern, as keys are hashed, so NaN
// groups with NaN and -0.0 apart from +0.0 (the join's rule).
bool GroupKeysEqual(const RowFormat& fmt, const uint8_t* a, const uint8_t* b,
                    const std::vector<int>& keys) {
  for (int k : keys) {
    bool na = fmt.IsNull(a, k), nb = fmt.IsNull(b, k);
    if (na != nb) return false;
    if (na) continue;
    switch (PhysicalTypeOf(fmt.column_type(k))) {
      case PhysicalType::kInt64:
      case PhysicalType::kDouble:
        if (fmt.GetInt64(a, k) != fmt.GetInt64(b, k)) return false;
        break;
      case PhysicalType::kString:
        if (fmt.GetString(a, k) != fmt.GetString(b, k)) return false;
        break;
    }
  }
  return true;
}

}  // namespace

Result<uint8_t*> HashAggregateOperator::GroupEntryFromBatch(const Batch& batch,
                                                            int64_t i,
                                                            uint64_t hash) {
  uint8_t* found = nullptr;
  table_->ForEachCandidate(hash, [&](const uint8_t* payload) {
    if (key_format_->KeysEqualBatch(payload, key_indices_, batch, i,
                                    options_.group_by,
                                    /*nulls_equal=*/true)) {
      found = const_cast<uint8_t*>(payload);
      return false;
    }
    return true;
  });
  if (found != nullptr) return found;

  uint8_t* entry = arena_->Allocate(entry_size());
  uint8_t* payload = entry + SerializedRowHashTable::kHeaderSize;
  key_format_->WriteKeysFromBatch(payload, batch, i, options_.group_by,
                                  arena_.get());
  InitState(entry_state(entry));
  table_->Insert(entry, hash);
  entries_.push_back(entry);
  return payload;
}

void HashAggregateOperator::AppendPartialValues(const uint8_t* state,
                                                std::vector<Value>* row) const {
  for (size_t a = 0; a < options_.aggregates.size(); ++a) {
    StateRef s{const_cast<uint8_t*>(state) + a * kStateSlot};
    const DataType value_type =
        partial_schema_
            .field(static_cast<int>(key_indices_.size() + 2 * a))
            .type;
    if (s.count() == 0) {
      row->push_back(Value::Null(value_type));
      row->push_back(Value::Int64(0));
      continue;
    }
    switch (static_cast<StateKind>(state_kinds_[a])) {
      case StateKind::kCountOnly:
        row->push_back(Value::Null(value_type));
        break;
      case StateKind::kSumInt:
        row->push_back(Value::Int64(s.acc_i()));
        break;
      case StateKind::kSumDouble:
        row->push_back(Value::Double(s.acc_d()));
        break;
      case StateKind::kMinMaxInt:
        switch (value_type) {
          case DataType::kBool:
            row->push_back(Value::Bool(s.acc_i() != 0));
            break;
          case DataType::kInt32:
            row->push_back(Value::Int32(static_cast<int32_t>(s.acc_i())));
            break;
          case DataType::kDate32:
            row->push_back(Value::Date32(static_cast<int32_t>(s.acc_i())));
            break;
          default:
            row->push_back(Value::Int64(s.acc_i()));
        }
        break;
      case StateKind::kMinMaxDouble:
        row->push_back(Value::Double(s.acc_d()));
        break;
      case StateKind::kMinMaxString:
        row->push_back(Value::String(std::string(
            reinterpret_cast<const char*>(s.acc_i()), s.aux())));
        break;
    }
    row->push_back(Value::Int64(s.count()));
  }
}

Status HashAggregateOperator::FlushToPartitions() {
  if (partition_files_.empty()) {
    partition_files_.resize(static_cast<size_t>(options_.num_partitions),
                            nullptr);
    for (auto& f : partition_files_) {
      f = std::tmpfile();
      if (f == nullptr) return Status::Internal("cannot create spill file");
    }
    ctx_->stats.spill_partitions += options_.num_partitions;
  }
  ++spill_flushes_;
  const int shift =
      64 - std::countr_zero(static_cast<unsigned>(options_.num_partitions));

  for (uint8_t* entry : entries_) {
    const uint8_t* payload = SerializedRowHashTable::EntryPayload(entry);
    uint64_t hash = SerializedRowHashTable::EntryHash(entry);
    std::vector<Value> row;
    for (size_t k = 0; k < key_indices_.size(); ++k) {
      row.push_back(key_format_->GetValue(payload, key_indices_[k]));
    }
    AppendPartialValues(entry_state(entry), &row);
    int p = static_cast<int>(hash >> shift);
    int64_t bytes = 0;
    VSTORE_RETURN_IF_ERROR(
        WriteSpillRow(partition_files_[static_cast<size_t>(p)],
                      partial_schema_, row, &bytes));
    RecordSpillBytes(bytes);
    AddGlobalSpillBytes(bytes);
    ++ctx_->stats.build_rows_spilled;
    ++rows_spilled_;
  }
  ResetAggState(1024);
  spilled_ = true;
  return Status::OK();
}

Status HashAggregateOperator::ConsumeInput() {
  VSTORE_RETURN_IF_ERROR(input_->Open());
  const int64_t budget = ctx_->operator_memory_budget;
  const bool partial_input = options_.phase == AggPhase::kFinal;
  std::vector<uint64_t> hashes;
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(Batch * batch, input_->Next());
    if (batch == nullptr) break;
    const uint8_t* active = batch->active();
    hashes.resize(static_cast<size_t>(batch->num_rows()));
    HashKeysBatch(*batch, options_.group_by, active, hashes.data());
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      if (!active[i]) continue;
      VSTORE_ASSIGN_OR_RETURN(
          uint8_t * payload,
          GroupEntryFromBatch(*batch, i, hashes[static_cast<size_t>(i)]));
      uint8_t* entry = payload - SerializedRowHashTable::kHeaderSize;
      ++rows_aggregated_;
      if (partial_input) {
        UpdateStateFromPartialBatch(entry_state(entry), *batch, i);
      } else {
        UpdateStateFromBatch(entry_state(entry), *batch, i);
      }
    }
    // Pressure is polled once per input batch, as the join build does: the
    // query tracker's over-budget state is level-triggered, so a per-row
    // poll would flush the whole table on every row while other operators
    // hold the query over its budget.
    RecordPeakMemory(static_cast<int64_t>(arena_->bytes_allocated()));
    if (!entries_.empty() && UnderMemoryPressure(budget)) {
      VSTORE_RETURN_IF_ERROR(FlushToPartitions());
    }
  }
  input_->Close();
  if (spilled_ && !entries_.empty()) {
    VSTORE_RETURN_IF_ERROR(FlushToPartitions());
  }
  return Status::OK();
}

Status HashAggregateOperator::LoadPartition(int p) {
  std::FILE* f = partition_files_[static_cast<size_t>(p)];
  std::rewind(f);
  std::vector<Value> row;
  std::vector<uint8_t> scratch(key_format_->row_size());
  Arena scratch_arena;

  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(bool more,
                            ReadSpillRow(f, partial_schema_, &row));
    if (!more) break;
    scratch_arena.Reset();
    std::vector<Value> key_values(row.begin(),
                                  row.begin() + static_cast<long>(
                                                    key_indices_.size()));
    key_format_->WriteValues(scratch.data(), key_values, &scratch_arena);
    uint64_t hash = key_format_->HashKeys(scratch.data(), key_indices_);
    uint8_t* found = nullptr;
    table_->ForEachCandidate(hash, [&](const uint8_t* payload) {
      if (GroupKeysEqual(*key_format_, payload, scratch.data(),
                         key_indices_)) {
        found = const_cast<uint8_t*>(payload);
        return false;
      }
      return true;
    });
    uint8_t* entry;
    if (found == nullptr) {
      entry = arena_->Allocate(entry_size());
      key_format_->WriteValues(entry + SerializedRowHashTable::kHeaderSize,
                               key_values, arena_.get());
      InitState(entry_state(entry));
      table_->Insert(entry, hash);
      entries_.push_back(entry);
    } else {
      entry = found - SerializedRowHashTable::kHeaderSize;
    }

    // Merge the partials.
    uint8_t* state = entry_state(entry);
    size_t v = key_indices_.size();
    for (size_t a = 0; a < options_.aggregates.size(); ++a, v += 2) {
      const AggSpec& spec = options_.aggregates[a];
      StateRef s{state + a * kStateSlot};
      const Value& value = row[v];
      int64_t count = row[v + 1].int64();
      if (count == 0) continue;
      switch (static_cast<StateKind>(state_kinds_[a])) {
        case StateKind::kCountOnly:
          break;
        case StateKind::kSumInt:
          s.acc_i() += value.int64();
          break;
        case StateKind::kSumDouble:
          s.acc_d() += value.dbl();
          break;
        case StateKind::kMinMaxInt: {
          int64_t x = value.int64();
          if (s.count() == 0 || (spec.fn == AggFn::kMin ? x < s.acc_i()
                                                        : x > s.acc_i())) {
            s.acc_i() = x;
          }
          break;
        }
        case StateKind::kMinMaxDouble: {
          double x = value.dbl();
          if (s.count() == 0 || (spec.fn == AggFn::kMin ? x < s.acc_d()
                                                        : x > s.acc_d())) {
            s.acc_d() = x;
          }
          break;
        }
        case StateKind::kMinMaxString: {
          std::string_view x = value.str();
          std::string_view cur(reinterpret_cast<const char*>(s.acc_i()),
                               s.aux());
          if (s.count() == 0 ||
              (spec.fn == AggFn::kMin ? x < cur : x > cur)) {
            std::string_view stable = arena_->CopyString(x);
            s.acc_i() = reinterpret_cast<int64_t>(stable.data());
            s.aux() = stable.size();
          }
          break;
        }
      }
      s.count() += count;
    }
  }
  return Status::OK();
}

Status HashAggregateOperator::EmitEntries() {
  output_->Reset();
  const int num_keys = static_cast<int>(key_indices_.size());
  const bool emit_partial = options_.phase == AggPhase::kPartial;
  int64_t out_row = 0;
  while (emit_pos_ < entries_.size() && out_row < output_->capacity()) {
    uint8_t* entry = entries_[emit_pos_++];
    ++groups_;
    const uint8_t* payload = SerializedRowHashTable::EntryPayload(entry);
    for (int k = 0; k < num_keys; ++k) {
      key_format_->CopyToVector(payload, k, &output_->column(k), out_row,
                                output_->arena());
    }
    uint8_t* state = entry_state(entry);

    if (emit_partial) {
      std::vector<Value> values;
      AppendPartialValues(state, &values);
      for (size_t c = 0; c < values.size(); ++c) {
        output_->column(num_keys + static_cast<int>(c))
            .SetValue(out_row, values[c], output_->arena());
      }
      ++out_row;
      continue;
    }

    for (size_t a = 0; a < options_.aggregates.size(); ++a) {
      const AggSpec& spec = options_.aggregates[a];
      StateRef s{state + a * kStateSlot};
      ColumnVector& dst = output_->column(num_keys + static_cast<int>(a));
      StateKind kind = static_cast<StateKind>(state_kinds_[a]);

      if (spec.fn == AggFn::kCount || spec.fn == AggFn::kCountStar) {
        dst.mutable_validity()[out_row] = 1;
        dst.mutable_ints()[out_row] = s.count();
        continue;
      }
      if (s.count() == 0) {  // aggregate over all-null input
        dst.mutable_validity()[out_row] = 0;
        continue;
      }
      dst.mutable_validity()[out_row] = 1;
      switch (spec.fn) {
        case AggFn::kAvg:
          dst.mutable_doubles()[out_row] =
              s.acc_d() / static_cast<double>(s.count());
          break;
        case AggFn::kSum:
          if (kind == StateKind::kSumDouble) {
            dst.mutable_doubles()[out_row] = s.acc_d();
          } else {
            dst.mutable_ints()[out_row] = s.acc_i();
          }
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          switch (kind) {
            case StateKind::kMinMaxInt:
              dst.mutable_ints()[out_row] = s.acc_i();
              break;
            case StateKind::kMinMaxDouble:
              dst.mutable_doubles()[out_row] = s.acc_d();
              break;
            case StateKind::kMinMaxString:
              dst.mutable_strings()[out_row] = output_->arena()->CopyString(
                  std::string_view(reinterpret_cast<const char*>(s.acc_i()),
                                   s.aux()));
              break;
            default:
              break;
          }
          break;
        default:
          break;
      }
    }
    ++out_row;
  }
  output_->set_num_rows(out_row);
  output_->ActivateAll();
  return Status::OK();
}

Status HashAggregateOperator::OpenImpl() {
  ResetAggState(1024);
  if (mem_ != nullptr) mem_->ResetPeak();
  pressure_.store(false, std::memory_order_relaxed);
  spilled_ = false;
  rows_aggregated_ = 0;
  groups_ = 0;
  spill_flushes_ = 0;
  rows_spilled_ = 0;
  emit_pos_ = 0;
  drain_partition_ = 0;
  done_ = false;
  output_ = std::make_unique<Batch>(output_schema_, ctx_->batch_size);
  VSTORE_RETURN_IF_ERROR(ConsumeInput());
  if (spilled_) {
    entries_.clear();
  } else if (options_.phase == AggPhase::kFinal && key_indices_.empty() &&
             entries_.empty()) {
    // Scalar aggregation over zero partial rows still yields one row
    // (COUNT = 0, other aggregates null).
    uint8_t* entry = arena_->Allocate(entry_size());
    key_format_->WriteValues(entry + SerializedRowHashTable::kHeaderSize, {},
                             arena_.get());
    InitState(entry_state(entry));
    entries_.push_back(entry);
  }
  return Status::OK();
}

Result<Batch*> HashAggregateOperator::NextImpl() {
  if (done_) return static_cast<Batch*>(nullptr);
  for (;;) {
    if (emit_pos_ < entries_.size()) {
      VSTORE_RETURN_IF_ERROR(EmitEntries());
      if (output_->num_rows() > 0) return output_.get();
    }
    if (!spilled_) {
      done_ = true;
      return static_cast<Batch*>(nullptr);
    }
    if (drain_partition_ >= options_.num_partitions) {
      done_ = true;
      return static_cast<Batch*>(nullptr);
    }
    // Merge the next spilled partition and emit it.
    ResetAggState(1024);
    emit_pos_ = 0;
    VSTORE_RETURN_IF_ERROR(LoadPartition(drain_partition_));
    ++drain_partition_;
  }
}

void HashAggregateOperator::CloseImpl() {
  RecordMemoryTracker(mem_.get());
  for (std::FILE* f : partition_files_) {
    if (f != nullptr) std::fclose(f);
  }
  partition_files_.clear();
  entries_.clear();
  table_.reset();
  arena_.reset();
  output_.reset();
}

}  // namespace vstore
