#include "exec/operator.h"

#include <cstring>

#include "common/macros.h"
#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/span_trace.h"

namespace vstore {

namespace {

// Batches evaluated through the bytecode VM versus the tree interpreter
// (the compiled-vs-interpreted dispatch split, exported via sys.metrics).
Counter* ExprBatchCounter(bool compiled) {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "vstore_expr_batches_total", "engine", "compiled");
  static Counter* i = MetricsRegistry::Global().GetCounter(
      "vstore_expr_batches_total", "engine", "interpreted");
  return compiled ? c : i;
}

}  // namespace

std::unique_ptr<ExecContext> MakeFragmentContext(
    const ExecContext& parent, MemoryTracker* memory_tracker) {
  auto fctx = std::make_unique<ExecContext>(parent);
  fctx->stats = ExecStats();
  fctx->memory_tracker = memory_tracker;
  return fctx;
}

Status BatchOperator::Open() {
  profile_open_ns_ = 0;
  profile_next_ns_ = 0;
  profile_close_ns_ = 0;
  profile_batches_ = 0;
  profile_rows_ = 0;
  profile_peak_memory_ = 0;
  profile_mem_current_ = 0;
  profile_spill_bytes_ = 0;
  // One trace span per execution, opened here and closed by Close(). The
  // SpanGuard makes it the thread's current span across each protocol
  // hook, so child operators opened inside OpenImpl and waits hit inside
  // NextImpl nest under it — the span tree mirrors the plan tree.
  QueryTraceContext& tc = CurrentQueryTraceContext();
  trace_span_ = tc.recorder != nullptr
                    ? tc.recorder->StartSpan(name(), "operator", tc.current)
                    : nullptr;
  // Mark opened before the hook so a failed Open still gets a Close (the
  // hooks may have acquired resources before erroring out).
  opened_ = true;
  int64_t start = MonotonicNowNs();
  SpanGuard guard(trace_span_);
  Status status = OpenImpl();
  profile_open_ns_ += MonotonicNowNs() - start;
  return status;
}

Result<Batch*> BatchOperator::Next() {
  int64_t start = MonotonicNowNs();
  SpanGuard guard(trace_span_);
  Result<Batch*> result = NextImpl();
  profile_next_ns_ += MonotonicNowNs() - start;
  if (result.ok() && result.value() != nullptr) {
    ++profile_batches_;
    profile_rows_ += result.value()->active_count();
  }
  return result;
}

void BatchOperator::Close() {
  if (!opened_) return;
  opened_ = false;
  int64_t start = MonotonicNowNs();
  {
    SpanGuard guard(trace_span_);
    CloseImpl();
  }
  profile_close_ns_ += MonotonicNowNs() - start;
  if (trace_span_ != nullptr) {
    QueryTraceContext& tc = CurrentQueryTraceContext();
    if (tc.recorder != nullptr) tc.recorder->EndSpan(trace_span_);
  }
}

void BatchOperator::RecordMemoryTracker(const MemoryTracker* tracker) {
  if (tracker == nullptr) return;
  RecordPeakMemory(tracker->peak());
  profile_mem_current_ = tracker->current();
}

void BatchOperator::AppendProfileChildren(OperatorProfile* node) const {
  for (const BatchOperator* input : ProfileInputs()) {
    node->children.push_back(input->BuildProfile());
  }
}

OperatorProfile BatchOperator::BuildProfile() const {
  OperatorProfile node;
  node.name = name();
  node.open_ns = profile_open_ns_;
  node.next_ns = profile_next_ns_;
  node.close_ns = profile_close_ns_;
  node.batches_produced = profile_batches_;
  node.rows_produced = profile_rows_;
  node.peak_memory_bytes = profile_peak_memory_;
  node.mem_current_bytes = profile_mem_current_;
  node.spill_bytes = profile_spill_bytes_;
  AppendProfileCounters(&node);
  AppendProfileChildren(&node);
  return node;
}

int64_t AppendActiveRows(const Batch& src, Batch* dst) {
  VSTORE_DCHECK(src.num_columns() == dst->num_columns());
  const int64_t n = src.num_rows();
  const uint8_t* active = src.active();
  int64_t out_row = dst->num_rows();
  int64_t copied = 0;

  // Build the compaction index once, then copy column by column.
  std::vector<int32_t> index;
  index.reserve(static_cast<size_t>(src.active_count()));
  for (int64_t i = 0; i < n; ++i) {
    if (active[i]) index.push_back(static_cast<int32_t>(i));
  }
  copied = static_cast<int64_t>(index.size());
  VSTORE_DCHECK(out_row + copied <= dst->capacity());

  for (int c = 0; c < src.num_columns(); ++c) {
    const ColumnVector& s = src.column(c);
    ColumnVector& d = dst->column(c);
    uint8_t* dv = d.mutable_validity();
    const uint8_t* sv = s.validity();
    switch (s.physical_type()) {
      case PhysicalType::kInt64: {
        const int64_t* in = s.ints();
        int64_t* out = d.mutable_ints();
        for (int64_t i = 0; i < copied; ++i) {
          out[out_row + i] = in[index[static_cast<size_t>(i)]];
          dv[out_row + i] = sv[index[static_cast<size_t>(i)]];
        }
        break;
      }
      case PhysicalType::kDouble: {
        const double* in = s.doubles();
        double* out = d.mutable_doubles();
        for (int64_t i = 0; i < copied; ++i) {
          out[out_row + i] = in[index[static_cast<size_t>(i)]];
          dv[out_row + i] = sv[index[static_cast<size_t>(i)]];
        }
        break;
      }
      case PhysicalType::kString: {
        const std::string_view* in = s.strings();
        std::string_view* out = d.mutable_strings();
        for (int64_t i = 0; i < copied; ++i) {
          // Re-anchor payloads: the source batch's arena is reused on its
          // next fill, so views must not escape it.
          out[out_row + i] =
              dst->arena()->CopyString(in[index[static_cast<size_t>(i)]]);
          dv[out_row + i] = sv[index[static_cast<size_t>(i)]];
        }
        break;
      }
    }
  }

  int64_t new_rows = out_row + copied;
  dst->set_num_rows(new_rows);
  std::fill(dst->mutable_active() + out_row, dst->mutable_active() + new_rows,
            uint8_t{1});
  dst->set_active_count(dst->active_count() + copied);
  return copied;
}

FilterOperator::FilterOperator(BatchOperatorPtr input, ExprPtr predicate,
                               ExecContext* ctx)
    : input_(std::move(input)), predicate_(std::move(predicate)), ctx_(ctx) {
  if (ctx_ == nullptr || ctx_->compile_expressions) {
    program_ = ExprProgramCache::Global().GetOrCompile({predicate_});
    if (program_ != nullptr) {
      frame_ = std::make_unique<ExprFrame>(program_);
      if (ctx_ != nullptr) frame_->SetMemoryTracker(ctx_->memory_tracker);
    }
  }
}

Result<Batch*> FilterOperator::NextImpl() {
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(Batch * batch, input_->Next());
    if (batch == nullptr) return static_cast<Batch*>(nullptr);
    if (batch->active_count() == 0) continue;
    rows_in_ += batch->active_count();

    const int64_t n = batch->num_rows();
    int64_t count = 0;
    auto apply = [&](const int64_t* values, const uint8_t* valid) {
      uint8_t* active = batch->mutable_active();
      for (int64_t i = 0; i < n; ++i) {
        active[i] &= valid[i] & (values[i] != 0 ? 1 : 0);
        count += active[i];
      }
    };
    if (program_ != nullptr) {
      VSTORE_RETURN_IF_ERROR(frame_->Run(*batch));
      const ColumnVector& result = frame_->result(0);
      apply(result.ints(), result.validity());
    } else {
      ColumnVector result(DataType::kBool, n);
      VSTORE_RETURN_IF_ERROR(
          predicate_->EvalBatch(*batch, batch->arena(), &result));
      apply(result.ints(), result.validity());
    }
    ExprBatchCounter(program_ != nullptr)->Increment();
    rows_dropped_ += batch->active_count() - count;
    batch->set_active_count(count);
    if (count > 0) return batch;
  }
}

ProjectOperator::ProjectOperator(BatchOperatorPtr input,
                                 std::vector<ExprPtr> exprs,
                                 std::vector<std::string> names,
                                 ExecContext* ctx)
    : input_(std::move(input)), exprs_(std::move(exprs)), ctx_(ctx) {
  VSTORE_CHECK(exprs_.size() == names.size());
  std::vector<Field> fields;
  fields.reserve(exprs_.size());
  for (size_t i = 0; i < exprs_.size(); ++i) {
    fields.push_back(Field{names[i], exprs_[i]->output_type(), true});
  }
  schema_ = Schema(std::move(fields));
  if (ctx_ == nullptr || ctx_->compile_expressions) {
    program_ = ExprProgramCache::Global().GetOrCompile(exprs_);
    if (program_ != nullptr) {
      frame_ = std::make_unique<ExprFrame>(program_);
      if (ctx_ != nullptr) frame_->SetMemoryTracker(ctx_->memory_tracker);
    }
  }
}

Result<Batch*> ProjectOperator::NextImpl() {
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(Batch * batch, input_->Next());
    if (batch == nullptr) return static_cast<Batch*>(nullptr);
    if (batch->active_count() == 0) continue;

    if (output_ == nullptr) {
      output_ = std::make_unique<Batch>(schema_, ctx_->batch_size);
    }
    output_->Reset();

    const int64_t n = batch->num_rows();
    // Evaluate into full-width vectors, then compact active rows. The
    // compiled path shares one program across all projection expressions
    // (CSE spans outputs) and aliases plain column references in place.
    std::vector<std::unique_ptr<ColumnVector>> computed;
    std::vector<const ColumnVector*> results(exprs_.size(), nullptr);
    if (program_ != nullptr) {
      VSTORE_RETURN_IF_ERROR(frame_->Run(*batch));
      for (size_t c = 0; c < exprs_.size(); ++c) {
        results[c] = &frame_->result(c);
      }
    } else {
      computed.reserve(exprs_.size());
      for (size_t c = 0; c < exprs_.size(); ++c) {
        auto cv = std::make_unique<ColumnVector>(exprs_[c]->output_type(),
                                                 std::max<int64_t>(n, 1));
        VSTORE_RETURN_IF_ERROR(
            exprs_[c]->EvalBatch(*batch, output_->arena(), cv.get()));
        results[c] = cv.get();
        computed.push_back(std::move(cv));
      }
    }
    ExprBatchCounter(program_ != nullptr)->Increment();

    const uint8_t* active = batch->active();
    int64_t out_row = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (size_t c = 0; c < results.size(); ++c) {
        ColumnVector& dst = output_->column(static_cast<int>(c));
        const ColumnVector& src = *results[c];
        dst.mutable_validity()[out_row] = src.validity()[i];
        switch (src.physical_type()) {
          case PhysicalType::kInt64:
            dst.mutable_ints()[out_row] = src.ints()[i];
            break;
          case PhysicalType::kDouble:
            dst.mutable_doubles()[out_row] = src.doubles()[i];
            break;
          case PhysicalType::kString:
            dst.mutable_strings()[out_row] = src.strings()[i];
            break;
        }
      }
      ++out_row;
    }
    output_->set_num_rows(out_row);
    output_->ActivateAll();
    if (out_row > 0) return output_.get();
  }
}

Result<Batch*> LimitOperator::NextImpl() {
  if (remaining_ <= 0) return static_cast<Batch*>(nullptr);
  for (;;) {
    VSTORE_ASSIGN_OR_RETURN(Batch * batch, input_->Next());
    if (batch == nullptr) return static_cast<Batch*>(nullptr);
    if (batch->active_count() == 0) continue;
    if (batch->active_count() <= remaining_) {
      remaining_ -= batch->active_count();
      return batch;
    }
    // Deactivate rows past the limit.
    uint8_t* active = batch->mutable_active();
    int64_t kept = 0;
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      if (!active[i]) continue;
      if (kept >= remaining_) {
        active[i] = 0;
      } else {
        ++kept;
      }
    }
    batch->set_active_count(kept);
    remaining_ = 0;
    return batch;
  }
}

}  // namespace vstore
