#include "exec/row/row_operator.h"

#include <algorithm>

#include "common/macros.h"
#include "storage/delta_store.h"

namespace vstore {

namespace {

// The row engine's one key encoder, for join and GROUP BY keys alike: a
// presence byte, then the int64 bytes (so INT32/INT64/DATE32 compare by
// value), the double's bit pattern (the batch engine's rule: NaN matches
// NaN, -0.0 does not match +0.0), or a length-prefixed string. Fixed
// widths and length prefixes keep composite keys from running into each
// other, and a NULL is a lone 0 presence byte, unlike every value.
void AppendKeyValue(const Value& v, std::string* key) {
  if (v.is_null()) {
    key->push_back('\0');
    return;
  }
  key->push_back('\1');
  switch (PhysicalTypeOf(v.type())) {
    case PhysicalType::kInt64: {
      int64_t x = v.int64();
      key->append(reinterpret_cast<const char*>(&x), sizeof(x));
      break;
    }
    case PhysicalType::kDouble: {
      double x = v.dbl();
      key->append(reinterpret_cast<const char*>(&x), sizeof(x));
      break;
    }
    case PhysicalType::kString: {
      const uint64_t len = v.str().size();
      key->append(reinterpret_cast<const char*>(&len), sizeof(len));
      *key += v.str();
      break;
    }
  }
}

}  // namespace

// --- RowStoreScanOperator -------------------------------------------------

Result<bool> RowStoreScanOperator::Next(std::vector<Value>* row) {
  if (pos_ >= table_->num_rows()) return false;
  VSTORE_RETURN_IF_ERROR(table_->GetRow(pos_++, row));
  return true;
}

// --- ColumnStoreRowScanOperator ----------------------------------------------

Status ColumnStoreRowScanOperator::Open() {
  snapshot_ = table_->Snapshot();
  group_ = 0;
  offset_ = 0;
  delta_index_ = 0;
  delta_loaded_ = false;
  delta_pos_ = 0;
  return Status::OK();
}

Result<bool> ColumnStoreRowScanOperator::Next(std::vector<Value>* row) {
  // Compressed row groups: per-row point decode (deliberately slow; this is
  // the row-mode access path).
  while (group_ < snapshot_->num_row_groups()) {
    const RowGroup& rg = snapshot_->row_group(group_);
    if (offset_ >= rg.num_rows()) {
      ++group_;
      offset_ = 0;
      continue;
    }
    int64_t r = offset_++;
    if (snapshot_->delete_bitmap(group_).IsDeleted(r)) continue;
    row->clear();
    for (int c = 0; c < rg.num_columns(); ++c) {
      row->push_back(rg.column(c).GetValue(r));
    }
    return true;
  }
  // Delta stores.
  for (;;) {
    if (!delta_loaded_) {
      if (delta_index_ >= snapshot_->num_delta_stores()) return false;
      delta_rows_.clear();
      delta_pos_ = 0;
      VSTORE_RETURN_IF_ERROR(snapshot_->delta_store(delta_index_).ForEach(
          [this](uint64_t, const std::vector<Value>& r) {
            delta_rows_.push_back(r);
          }));
      delta_loaded_ = true;
    }
    if (delta_pos_ < static_cast<int64_t>(delta_rows_.size())) {
      *row = delta_rows_[static_cast<size_t>(delta_pos_++)];
      return true;
    }
    delta_loaded_ = false;
    ++delta_index_;
  }
}

// --- RowFilterOperator ---------------------------------------------------------

Result<bool> RowFilterOperator::Next(std::vector<Value>* row) {
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(bool more, input_->Next(row));
    if (!more) return false;
    Value v;
    VSTORE_RETURN_IF_ERROR(predicate_->EvalRow(*row, &v));
    if (!v.is_null() && v.int64() != 0) return true;
  }
}

// --- RowProjectOperator ----------------------------------------------------------

RowProjectOperator::RowProjectOperator(RowOperatorPtr input,
                                       std::vector<ExprPtr> exprs,
                                       std::vector<std::string> names)
    : input_(std::move(input)), exprs_(std::move(exprs)) {
  VSTORE_CHECK(exprs_.size() == names.size());
  std::vector<Field> fields;
  for (size_t i = 0; i < exprs_.size(); ++i) {
    fields.push_back(Field{names[i], exprs_[i]->output_type(), true});
  }
  schema_ = Schema(std::move(fields));
}

Result<bool> RowProjectOperator::Next(std::vector<Value>* row) {
  VSTORE_ASSIGN_OR_RETURN(bool more, input_->Next(&scratch_));
  if (!more) return false;
  row->clear();
  row->reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    Value v;
    VSTORE_RETURN_IF_ERROR(e->EvalRow(scratch_, &v));
    row->push_back(std::move(v));
  }
  return true;
}

// --- RowHashJoinOperator ------------------------------------------------------------

RowHashJoinOperator::RowHashJoinOperator(RowOperatorPtr probe,
                                         RowOperatorPtr build, Options options)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      options_(std::move(options)),
      emit_build_columns_(options_.join_type == JoinType::kInner ||
                          options_.join_type == JoinType::kLeftOuter) {
  std::vector<Field> fields = probe_->output_schema().fields();
  if (emit_build_columns_) {
    for (const Field& f : build_->output_schema().fields()) {
      Field nf = f;
      nf.nullable = true;
      fields.push_back(nf);
    }
  }
  output_schema_ = Schema(std::move(fields));
}

std::string RowHashJoinOperator::KeyOf(const std::vector<Value>& row,
                                       const std::vector<int>& keys,
                                       bool* has_null) const {
  std::string key;
  *has_null = false;
  for (int k : keys) {
    const Value& v = row[static_cast<size_t>(k)];
    if (v.is_null()) {
      *has_null = true;
      return key;
    }
    AppendKeyValue(v, &key);
  }
  return key;
}

void RowHashJoinOperator::Emit(const std::vector<Value>& probe_row,
                               const std::vector<Value>* build_row,
                               std::vector<Value>* out) const {
  *out = probe_row;
  if (!emit_build_columns_) return;
  if (build_row != nullptr) {
    out->insert(out->end(), build_row->begin(), build_row->end());
  } else {
    for (const Field& f : build_->output_schema().fields()) {
      out->push_back(Value::Null(f.type));
    }
  }
}

Status RowHashJoinOperator::Open() {
  table_.clear();
  probe_valid_ = false;
  row_matched_ = false;
  VSTORE_RETURN_IF_ERROR(build_->Open());
  std::vector<Value> row;
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(bool more, build_->Next(&row));
    if (!more) break;
    bool has_null;
    std::string key = KeyOf(row, options_.build_keys, &has_null);
    if (has_null) continue;
    table_.emplace(std::move(key), row);
  }
  build_->Close();
  return probe_->Open();
}

Result<bool> RowHashJoinOperator::Next(std::vector<Value>* row) {
  const JoinType jt = options_.join_type;
  for (;;) {
    if (!probe_valid_) {
      VSTORE_ASSIGN_OR_RETURN(bool more, probe_->Next(&probe_row_));
      if (!more) return false;
      bool has_null;
      std::string key = KeyOf(probe_row_, options_.probe_keys, &has_null);
      if (has_null) {
        if (jt == JoinType::kLeftOuter || jt == JoinType::kLeftAnti) {
          Emit(probe_row_, nullptr, row);
          return true;
        }
        continue;
      }
      range_ = table_.equal_range(key);
      row_matched_ = range_.first != range_.second;
      probe_valid_ = true;

      if (jt == JoinType::kLeftSemi) {
        probe_valid_ = false;
        if (row_matched_) {
          Emit(probe_row_, nullptr, row);
          return true;
        }
        continue;
      }
      if (jt == JoinType::kLeftAnti) {
        probe_valid_ = false;
        if (!row_matched_) {
          Emit(probe_row_, nullptr, row);
          return true;
        }
        continue;
      }
      if (!row_matched_) {
        probe_valid_ = false;
        if (jt == JoinType::kLeftOuter) {
          Emit(probe_row_, nullptr, row);
          return true;
        }
        continue;
      }
    }
    if (range_.first != range_.second) {
      Emit(probe_row_, &range_.first->second, row);
      ++range_.first;
      if (range_.first == range_.second) probe_valid_ = false;
      return true;
    }
    probe_valid_ = false;
  }
}

void RowHashJoinOperator::Close() {
  probe_->Close();
  table_.clear();
}

// --- RowHashAggregateOperator -----------------------------------------------------------

RowHashAggregateOperator::RowHashAggregateOperator(RowOperatorPtr input,
                                                   Options options)
    : input_(std::move(input)), options_(std::move(options)) {
  const Schema& in = input_->output_schema();
  std::vector<Field> fields;
  for (int k : options_.group_by) fields.push_back(in.field(k));
  for (const AggSpec& spec : options_.aggregates) {
    DataType input_type = spec.column >= 0 ? in.field(spec.column).type
                                           : DataType::kInt64;
    fields.push_back(
        Field{spec.name, AggOutputType(spec.fn, input_type), true});
  }
  output_schema_ = Schema(std::move(fields));
}

Status RowHashAggregateOperator::Open() {
  groups_.clear();
  opened_ = false;
  VSTORE_RETURN_IF_ERROR(input_->Open());
  std::vector<Value> row;
  const size_t num_aggs = options_.aggregates.size();
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(bool more, input_->Next(&row));
    if (!more) break;
    std::string key;
    for (int k : options_.group_by) {
      AppendKeyValue(row[static_cast<size_t>(k)], &key);
    }
    auto [it, inserted] = groups_.try_emplace(std::move(key));
    GroupState& state = it->second;
    if (inserted) {
      for (int k : options_.group_by) {
        state.keys.push_back(row[static_cast<size_t>(k)]);
      }
      state.sum_d.assign(num_aggs, 0);
      state.sum_i.assign(num_aggs, 0);
      state.count.assign(num_aggs, 0);
      state.minmax.assign(num_aggs, Value());
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggSpec& spec = options_.aggregates[a];
      if (spec.fn == AggFn::kCountStar) {
        ++state.count[a];
        continue;
      }
      const Value& v = row[static_cast<size_t>(spec.column)];
      if (v.is_null()) continue;
      switch (spec.fn) {
        case AggFn::kSum:
        case AggFn::kAvg:
          if (v.type() == DataType::kDouble) {
            state.sum_d[a] += v.dbl();
          } else {
            state.sum_i[a] += v.int64();
            state.sum_d[a] += static_cast<double>(v.int64());
          }
          break;
        case AggFn::kMin:
        case AggFn::kMax: {
          if (state.count[a] == 0) {
            state.minmax[a] = v;
          } else {
            const Value& cur = state.minmax[a];
            bool take;
            if (PhysicalTypeOf(v.type()) == PhysicalType::kString) {
              take = spec.fn == AggFn::kMin ? v.str() < cur.str()
                                            : v.str() > cur.str();
            } else {
              take = spec.fn == AggFn::kMin
                         ? v.AsDouble() < cur.AsDouble()
                         : v.AsDouble() > cur.AsDouble();
            }
            if (take) state.minmax[a] = v;
          }
          break;
        }
        default:
          break;
      }
      ++state.count[a];
    }
  }
  input_->Close();
  emit_it_ = groups_.begin();
  opened_ = true;
  return Status::OK();
}

Result<bool> RowHashAggregateOperator::Next(std::vector<Value>* row) {
  VSTORE_CHECK(opened_);
  if (emit_it_ == groups_.end()) return false;
  const GroupState& state = emit_it_->second;
  const Schema& in = input_->output_schema();
  row->clear();
  row->insert(row->end(), state.keys.begin(), state.keys.end());
  for (size_t a = 0; a < options_.aggregates.size(); ++a) {
    const AggSpec& spec = options_.aggregates[a];
    DataType input_type = spec.column >= 0 ? in.field(spec.column).type
                                           : DataType::kInt64;
    switch (spec.fn) {
      case AggFn::kCount:
      case AggFn::kCountStar:
        row->push_back(Value::Int64(state.count[a]));
        break;
      case AggFn::kSum:
        if (state.count[a] == 0) {
          row->push_back(Value::Null(AggOutputType(spec.fn, input_type)));
        } else if (input_type == DataType::kDouble) {
          row->push_back(Value::Double(state.sum_d[a]));
        } else {
          row->push_back(Value::Int64(state.sum_i[a]));
        }
        break;
      case AggFn::kAvg:
        row->push_back(state.count[a] == 0
                           ? Value::Null(DataType::kDouble)
                           : Value::Double(state.sum_d[a] /
                                           static_cast<double>(state.count[a])));
        break;
      case AggFn::kMin:
      case AggFn::kMax:
        row->push_back(state.count[a] == 0 ? Value::Null(input_type)
                                           : state.minmax[a]);
        break;
    }
  }
  ++emit_it_;
  return true;
}

// --- RowSortOperator -------------------------------------------------------------------

Status RowSortOperator::Open() {
  rows_.clear();
  pos_ = 0;
  VSTORE_RETURN_IF_ERROR(input_->Open());
  std::vector<Value> row;
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(bool more, input_->Next(&row));
    if (!more) break;
    rows_.push_back(row);
  }
  std::sort(rows_.begin(), rows_.end(),
            [this](const std::vector<Value>& a, const std::vector<Value>& b) {
              return CompareRowsOnKeys(a, b, keys_) < 0;
            });
  if (limit_ >= 0 && static_cast<int64_t>(rows_.size()) > limit_) {
    rows_.resize(static_cast<size_t>(limit_));
  }
  return Status::OK();
}

Result<bool> RowSortOperator::Next(std::vector<Value>* row) {
  if (pos_ >= rows_.size()) return false;
  *row = rows_[pos_++];
  return true;
}

// --- Adapters -----------------------------------------------------------------------------

Result<bool> BatchToRowAdapter::Next(std::vector<Value>* row) {
  for (;;) {
    if (batch_ != nullptr && pos_ < batch_->num_rows()) {
      if (!batch_->active()[pos_]) {
        ++pos_;
        continue;
      }
      *row = batch_->GetActiveRow(pos_++);
      return true;
    }
    VSTORE_ASSIGN_OR_RETURN(Batch * next, input_->Next());
    if (next == nullptr) return false;
    batch_ = next;
    pos_ = 0;
  }
}

Result<Batch*> RowToBatchAdapter::NextImpl() {
  output_->Reset();
  int64_t out_row = 0;
  std::vector<Value> row;
  while (out_row < output_->capacity()) {
    VSTORE_ASSIGN_OR_RETURN(bool more, input_->Next(&row));
    if (!more) break;
    for (int c = 0; c < output_->num_columns(); ++c) {
      output_->column(c).SetValue(out_row, row[static_cast<size_t>(c)],
                                  output_->arena());
    }
    ++out_row;
  }
  if (out_row == 0) return static_cast<Batch*>(nullptr);
  output_->set_num_rows(out_row);
  output_->ActivateAll();
  return output_.get();
}

}  // namespace vstore
