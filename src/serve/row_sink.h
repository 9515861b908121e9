// Pluggable consumers for streamed synthetic rows.
//
// SamplingService produces a batch as a sequence of shard-aligned columnar
// chunks rather than one giant Dataset, so a million-row request never
// needs a million rows resident per client. Each chunk is owned by the
// sampling cursor and reaches a sink as a ColumnBatch — a non-owning view
// (row count plus one span per output column) that is valid only for the
// duration of the Chunk call. Three sinks cover the library and wire cases:
// a columnar DatasetSink that reassembles the full batch (what library
// callers and tests want), and CsvSink / BinaryRowSink, which render chunks
// by appending bytes to a caller-owned std::string (what the TCP front-end
// hands to a session's write queue, one append per chunk).
//
// Sinks only encode. They never check deadlines or whether the consumer is
// still there: the cursor (ChunkedSampler) checks the deadline before every
// later chunk, and the server's batch driver checks disconnects, CANCEL and
// the write-queue bound between steps.

#ifndef PRIVBAYES_SERVE_ROW_SINK_H_
#define PRIVBAYES_SERVE_ROW_SINK_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace privbayes {

/// One chunk of a streamed batch, borrowed from the producer: `columns[c]`
/// holds `num_rows` values of output column c, in the schema passed to
/// RowSink::Begin.
struct ColumnBatch {
  int64_t num_rows = 0;
  std::vector<std::span<const Value>> columns;
};

/// Receives one batch: Begin once, Chunk for each row block in row order,
/// End once. Chunks of one batch arrive sequentially from one thread.
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual void Begin(const Schema& /*schema*/) {}
  virtual void Chunk(const ColumnBatch& rows) = 0;
  virtual void End() {}
};

/// Reassembles the streamed chunks into one columnar Dataset.
class DatasetSink : public RowSink {
 public:
  void Begin(const Schema& schema) override;
  void Chunk(const ColumnBatch& rows) override;
  void End() override;

  /// The completed batch; valid after End.
  Dataset& dataset() { return result_; }
  const Dataset& dataset() const { return result_; }

 private:
  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  Dataset result_;
};

/// Renders chunks as CSV (data/csv.h format and codec: header row of
/// attribute names, then integer leaf codes), appending to `out`. The
/// string must outlive the sink; the caller drains it as it likes.
class CsvSink : public RowSink {
 public:
  explicit CsvSink(std::string& out) : out_(&out) {}

  void Begin(const Schema& schema) override;
  void Chunk(const ColumnBatch& rows) override;

  /// Terminates the stream with the in-band abort marker ("!ERR <message>"
  /// where a row would go, then the END trailer) — the CSV counterpart of
  /// BinaryRowSink::Abort, so each wire sink owns its own failure encoding.
  void Abort(const std::string& message);

  int64_t rows_written() const { return rows_written_; }

 private:
  std::string* out_;
  int64_t rows_written_ = 0;
};

/// Renders chunks as the length-prefixed binary frame stream of serve/wire.h
/// (the SAMPLEB response body), appending to `out`: Begin writes one schema
/// frame (per-column cardinalities — both ends derive the packed bit widths
/// from them), each Chunk writes row frames of at most kMaxWireFrameRows
/// rows with every column packed at its minimal power-of-two bit width, End
/// writes the end frame. Abort writes an error frame instead — the in-band
/// failure marker a client must surface as a failed request. Frames are
/// built in place in `out`, their length prefixes patched once the payload
/// is known. The string must outlive the sink.
class BinaryRowSink : public RowSink {
 public:
  explicit BinaryRowSink(std::string& out) : out_(&out) {}

  void Begin(const Schema& schema) override;
  void Chunk(const ColumnBatch& rows) override;
  void End() override;

  /// Terminates the stream with an error frame carrying `message`.
  void Abort(const std::string& message);

  int64_t rows_written() const { return rows_written_; }

 private:
  /// Appends a length placeholder and the frame type; returns the frame's
  /// offset in *out_ for CloseFrame.
  size_t OpenFrame(uint8_t type);
  /// Patches the u32 length prefix of the frame opened at `at`.
  void CloseFrame(size_t at);

  std::string* out_;
  std::vector<int> bits_;   // packed width per column
  int rows_per_frame_ = 1;  // bounded by u16 count AND kMaxWireFrame bytes
  int64_t rows_written_ = 0;
};

}  // namespace privbayes

#endif  // PRIVBAYES_SERVE_ROW_SINK_H_
