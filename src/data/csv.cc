#include "data/csv.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/check.h"

namespace privbayes {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream iss(line);
  while (std::getline(iss, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

void AppendCsvHeader(const Schema& schema, std::string& out) {
  for (int c = 0; c < schema.num_attrs(); ++c) {
    if (c) out += ',';
    out += schema.attr(c).name;
  }
  out += '\n';
}

void AppendCsvRows(std::span<const std::span<const Value>> columns,
                   int64_t first, int64_t count, std::string& out) {
  // A cell is at most 5 digits ("65535") plus its separator: size the tail
  // for the worst case, render in place, then trim to what was written.
  const size_t start = out.size();
  out.resize(start + static_cast<size_t>(count) * (6 * columns.size() + 1));
  char* p = out.data() + start;
  for (int64_t r = first; r < first + count; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c) *p++ = ',';
      p = std::to_chars(p, p + 5, columns[c][static_cast<size_t>(r)]).ptr;
    }
    *p++ = '\n';
  }
  out.resize(static_cast<size_t>(p - out.data()));
}

bool ParseCsvRow(std::string_view line, std::span<Value> row) {
  const char* p = line.data();
  const char* const end = p + line.size();
  for (size_t c = 0; c < row.size(); ++c) {
    if (c > 0) {
      if (p == end || *p != ',') return false;
      ++p;
    }
    // from_chars into the 16-bit Value rejects a sign, a blank cell and
    // anything above 65535; the separator check catches trailing bytes.
    const std::from_chars_result got = std::from_chars(p, end, row[c]);
    if (got.ec != std::errc()) return false;
    p = got.ptr;
  }
  return p == end;
}

void WriteCsv(const Dataset& data, std::ostream& out) {
  constexpr int64_t kBlockRows = 4096;
  std::vector<std::span<const Value>> columns;
  for (int c = 0; c < data.num_attrs(); ++c) {
    columns.emplace_back(data.column(c));
  }
  std::string text;
  AppendCsvHeader(data.schema(), text);
  for (int64_t first = 0; first < data.num_rows(); first += kBlockRows) {
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    text.clear();
    AppendCsvRows(columns, first, std::min(kBlockRows, data.num_rows() - first),
                  text);
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void WriteCsvFile(const Dataset& data, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  WriteCsv(data, f);
  if (!f) throw std::runtime_error("write failed: " + path);
}

Dataset ReadCsv(const Schema& schema, std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("empty CSV input");
  std::vector<std::string> header = SplitCsvLine(line);
  if (static_cast<int>(header.size()) != schema.num_attrs()) {
    throw std::runtime_error("CSV header width mismatch");
  }
  for (int c = 0; c < schema.num_attrs(); ++c) {
    if (header[c] != schema.attr(c).name) {
      throw std::runtime_error("CSV header column '" + header[c] +
                               "' != schema attribute '" +
                               schema.attr(c).name + "'");
    }
  }
  Dataset out{schema};
  std::vector<Value> row(schema.num_attrs());
  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (!ParseCsvRow(line, row)) {
      throw std::runtime_error("malformed CSV row at line " +
                               std::to_string(line_no));
    }
    for (int c = 0; c < schema.num_attrs(); ++c) {
      if (row[c] >= schema.Cardinality(c)) {
        throw std::runtime_error("CSV value out of domain at line " +
                                 std::to_string(line_no));
      }
    }
    out.AppendRow(row);
  }
  return out;
}

Dataset ReadCsvFile(const Schema& schema, const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  return ReadCsv(schema, f);
}

}  // namespace privbayes
