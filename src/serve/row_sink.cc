#include "serve/row_sink.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "data/csv.h"
#include "serve/wire.h"

namespace privbayes {

void DatasetSink::Begin(const Schema& schema) {
  schema_ = schema;
  columns_.assign(static_cast<size_t>(schema_.num_attrs()), {});
  result_ = Dataset();
}

void DatasetSink::Chunk(const ColumnBatch& rows) {
  PB_THROW_IF(rows.columns.size() != columns_.size(), "chunk schema mismatch");
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].insert(columns_[c].end(), rows.columns[c].begin(),
                       rows.columns[c].end());
  }
}

void DatasetSink::End() {
  result_ = Dataset::FromColumns(schema_, std::move(columns_));
  columns_.clear();
}

void CsvSink::Begin(const Schema& schema) { AppendCsvHeader(schema, *out_); }

void CsvSink::Chunk(const ColumnBatch& rows) {
  AppendCsvRows(rows.columns, 0, rows.num_rows, *out_);
  rows_written_ += rows.num_rows;
}

void CsvSink::Abort(const std::string& message) {
  *out_ += "!ERR " + message + "\nEND\n";
}

size_t BinaryRowSink::OpenFrame(uint8_t type) {
  const size_t at = out_->size();
  out_->append(4, '\0');
  out_->push_back(static_cast<char>(type));
  return at;
}

void BinaryRowSink::CloseFrame(size_t at) {
  const size_t len = out_->size() - at - 4;
  PB_CHECK(len <= kMaxWireFrame);
  for (int i = 0; i < 4; ++i) {
    (*out_)[at + static_cast<size_t>(i)] = static_cast<char>(len >> (8 * i));
  }
}

void BinaryRowSink::Begin(const Schema& schema) {
  bits_.resize(static_cast<size_t>(schema.num_attrs()));
  const size_t frame = OpenFrame(kWireFrameSchema);
  AppendU16(*out_, static_cast<uint16_t>(schema.num_attrs()));
  size_t bits_per_row = 0;
  for (int c = 0; c < schema.num_attrs(); ++c) {
    int card = schema.Cardinality(c);
    bits_[static_cast<size_t>(c)] = WirePackedBits(card);
    bits_per_row += static_cast<size_t>(bits_[static_cast<size_t>(c)]);
    // Cardinality 65536 wires as 0 (a u16 can't hold it; 0 is never valid).
    AppendU16(*out_, static_cast<uint16_t>(card == 65536 ? 0 : card));
  }
  CloseFrame(frame);
  // Rows per frame: the u16 row-count ceiling, tightened so the payload of
  // a full frame (per-column packed bytes, each padded up to a byte, plus
  // the 3-byte header) can never exceed kMaxWireFrame however wide the
  // schema is — CloseFrame's size invariant must hold for every model.
  const size_t budget =
      kMaxWireFrame - 3 - static_cast<size_t>(schema.num_attrs());
  rows_per_frame_ = static_cast<int>(std::min<size_t>(
      kMaxWireFrameRows, std::max<size_t>(1, budget * 8 / bits_per_row)));
}

void BinaryRowSink::Chunk(const ColumnBatch& rows) {
  PB_THROW_IF(rows.columns.size() != bits_.size(), "chunk schema mismatch");
  // A row frame counts rows in a u16 and is capped at kMaxWireFrame bytes;
  // split oversized chunks.
  for (int64_t first = 0; first < rows.num_rows; first += rows_per_frame_) {
    const int n = static_cast<int>(
        std::min<int64_t>(rows.num_rows - first, rows_per_frame_));
    const size_t frame = OpenFrame(kWireFrameRows);
    AppendU16(*out_, static_cast<uint16_t>(n));
    for (size_t c = 0; c < bits_.size(); ++c) {
      PackWireColumn(rows.columns[c].data() + first, n, bits_[c], *out_);
    }
    CloseFrame(frame);
    rows_written_ += n;
  }
}

void BinaryRowSink::End() { CloseFrame(OpenFrame(kWireFrameEnd)); }

void BinaryRowSink::Abort(const std::string& message) {
  const size_t frame = OpenFrame(kWireFrameError);
  out_->append(message, 0, std::min(message.size(), size_t{4096}));
  CloseFrame(frame);
}

}  // namespace privbayes
