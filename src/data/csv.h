// Minimal CSV I/O for datasets.
//
// The on-disk format is a header row of attribute names followed by integer
// cell values (taxonomy-leaf codes). This is the format the examples use to
// hand synthetic data to downstream tools, and the body of the served
// SAMPLE stream.
//
// The cell codec lives here once: AppendCsvRows is the only row formatter
// (WriteCsv and the serving layer's CsvSink both render through it) and
// ParseCsvRow the only row parser (ReadCsv, the pack tool and the wire
// client). The parse is strict: every cell must be a plain decimal integer
// in [0, 65535] — no sign, no blank, no trailing characters — and the row
// must have exactly the expected width. Callers that know the cardinalities
// check the domain on top.

#ifndef PRIVBAYES_DATA_CSV_H_
#define PRIVBAYES_DATA_CSV_H_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"

namespace privbayes {

/// Splits one CSV line on commas (the format never quotes). Used for the
/// header row of attribute names.
std::vector<std::string> SplitCsvLine(const std::string& line);

/// Appends the header row (attribute names, comma-separated, '\n') to `out`.
void AppendCsvHeader(const Schema& schema, std::string& out);

/// Appends rows [first, first + count) of `columns` (one span per column,
/// in output order) to `out`, one comma-separated line per row.
void AppendCsvRows(std::span<const std::span<const Value>> columns,
                   int64_t first, int64_t count, std::string& out);

/// Parses one data row into `row` (whose size is the expected width).
/// Returns false on a wrong width or on any cell that is not a plain
/// decimal integer in [0, 65535]; `row` is then unspecified.
bool ParseCsvRow(std::string_view line, std::span<Value> row);

/// Writes `data` as CSV to `out`.
void WriteCsv(const Dataset& data, std::ostream& out);

/// Writes `data` as CSV to the file at `path`; throws std::runtime_error on
/// I/O failure.
void WriteCsvFile(const Dataset& data, const std::string& path);

/// Reads a CSV produced by WriteCsv back into a dataset over `schema`.
/// Validates the header against the schema's attribute names, every row
/// with ParseCsvRow and every value against its attribute's domain; throws
/// std::runtime_error on any mismatch.
Dataset ReadCsv(const Schema& schema, std::istream& in);

/// File variant of ReadCsv.
Dataset ReadCsvFile(const Schema& schema, const std::string& path);

}  // namespace privbayes

#endif  // PRIVBAYES_DATA_CSV_H_
