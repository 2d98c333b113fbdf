#include "storage/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "storage/result_writer.h"

namespace rasql::storage {

using common::Result;
using common::Status;

namespace {

/// One parsed cell: its unescaped text plus whether it was quoted in the
/// source. Quoting matters twice downstream: a quoted cell is always a
/// string (never re-inferred as a number), and a quoted empty cell is the
/// empty string while an unquoted empty cell is NULL.
struct Cell {
  std::string text;
  bool quoted = false;
};

/// Splits `text` into records of cells, honoring RFC 4180 quoting: a cell
/// starting with '"' runs to the matching closing quote, with embedded
/// delimiters and newlines taken literally and '""' unescaping to '"'.
/// Blank lines and comment lines are skipped, but only at record start —
/// a '#' inside a quoted cell is data. Works character-by-character
/// because line-based splitting would break cells with embedded newlines.
Result<std::vector<std::vector<Cell>>> SplitRecords(
    const std::string& text, const CsvOptions& options,
    std::vector<int>* record_lines) {
  std::vector<std::vector<Cell>> records;
  const size_t n = text.size();
  size_t i = 0;
  int line = 1;
  while (i < n) {
    // Between records: skip blank lines (and stray CRs).
    if (text[i] == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (text[i] == '\r') {
      ++i;
      continue;
    }
    if (options.comment != '\0' && text[i] == options.comment) {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }

    std::vector<Cell> record;
    Cell cell;
    bool in_quotes = false;
    bool closed_quote = false;  // cell ended with a closing quote
    const int record_line = line;
    while (true) {
      if (i == n) {
        if (in_quotes) {
          return Status::InvalidArgument(
              "CSV line " + std::to_string(record_line) +
              ": unterminated quoted cell");
        }
        record.push_back(std::move(cell));
        break;
      }
      const char c = text[i];
      if (in_quotes) {
        if (c == '"') {
          if (i + 1 < n && text[i + 1] == '"') {
            cell.text += '"';
            i += 2;
          } else {
            in_quotes = false;
            closed_quote = true;
            ++i;
          }
        } else {
          if (c == '\n') ++line;
          cell.text += c;
          ++i;
        }
        continue;
      }
      if (c == options.delimiter) {
        record.push_back(std::move(cell));
        cell = Cell{};
        closed_quote = false;
        ++i;
        continue;
      }
      if (c == '\n') {
        ++line;
        ++i;
        record.push_back(std::move(cell));
        break;
      }
      if (c == '\r') {  // stripped outside quotes (CRLF line endings)
        ++i;
        continue;
      }
      if (c == '"' && cell.text.empty() && !cell.quoted) {
        cell.quoted = true;
        in_quotes = true;
        ++i;
        continue;
      }
      if (closed_quote) {
        return Status::InvalidArgument(
            "CSV line " + std::to_string(record_line) +
            ": unexpected character after closing quote");
      }
      cell.text += c;  // a quote mid-cell is taken literally
      ++i;
    }
    records.push_back(std::move(record));
    if (record_lines != nullptr) record_lines->push_back(record_line);
  }
  return records;
}

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

Result<Relation> ParseCsv(const std::string& text,
                          const CsvOptions& options) {
  std::vector<int> record_lines;
  RASQL_ASSIGN_OR_RETURN(std::vector<std::vector<Cell>> records,
                         SplitRecords(text, options, &record_lines));

  std::vector<std::string> names;
  size_t width = 0;
  size_t first_data = 0;
  if (options.has_header && !records.empty()) {
    for (Cell& cell : records[0]) names.push_back(std::move(cell.text));
    width = names.size();
    first_data = 1;
  }

  std::vector<std::vector<Cell>> cells(
      std::make_move_iterator(records.begin() + first_data),
      std::make_move_iterator(records.end()));
  for (size_t r = 0; r < cells.size(); ++r) {
    if (width == 0) width = cells[r].size();
    if (cells[r].size() != width) {
      return Status::InvalidArgument(
          "CSV line " + std::to_string(record_lines[first_data + r]) +
          " has " + std::to_string(cells[r].size()) + " cells, expected " +
          std::to_string(width));
    }
  }
  if (width == 0) {
    return Status::InvalidArgument("CSV input contains no data");
  }
  if (names.empty()) {
    for (size_t c = 0; c < width; ++c) {
      names.push_back("_c" + std::to_string(c));
    }
  }

  // Type inference: INT ⊂ DOUBLE ⊂ STRING per column; unquoted empty cells
  // (NULL) don't constrain the type, quoted cells are always strings.
  std::vector<ValueType> types(width, ValueType::kInt64);
  for (const auto& row : cells) {
    for (size_t c = 0; c < width; ++c) {
      const Cell& cell = row[c];
      if (types[c] == ValueType::kString) continue;
      if (cell.quoted) {
        types[c] = ValueType::kString;
        continue;
      }
      if (cell.text.empty()) continue;
      int64_t iv;
      double dv;
      if (types[c] == ValueType::kInt64 && !ParseInt(cell.text, &iv)) {
        types[c] = ValueType::kDouble;
      }
      if (types[c] == ValueType::kDouble && !ParseDouble(cell.text, &dv)) {
        types[c] = ValueType::kString;
      }
    }
  }

  std::vector<Column> columns;
  columns.reserve(width);
  for (size_t c = 0; c < width; ++c) {
    columns.push_back(Column{names[c], types[c]});
  }
  Relation rel{Schema(std::move(columns))};
  for (auto& row_cells : cells) {
    Row row;
    row.reserve(width);
    for (size_t c = 0; c < width; ++c) {
      Cell& cell = row_cells[c];
      if (cell.text.empty() && !cell.quoted) {
        row.push_back(Value::Null());
        continue;
      }
      switch (types[c]) {
        case ValueType::kInt64: {
          int64_t v = 0;
          ParseInt(cell.text, &v);
          row.push_back(Value::Int(v));
          break;
        }
        case ValueType::kDouble: {
          double v = 0;
          ParseDouble(cell.text, &v);
          row.push_back(Value::Double(v));
          break;
        }
        default:
          row.push_back(Value::String(std::move(cell.text)));
          break;
      }
    }
    rel.Add(std::move(row));
  }
  return rel;
}

Result<Relation> LoadCsv(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseCsv(buffer.str(), options);
}

std::string ToCsv(const Relation& relation, const CsvOptions& options) {
  // One serializer for every output path: the chunk-consuming writer
  // renders straight from the typed column arrays.
  std::string out;
  CsvResultWriter writer(&out, options);
  WriteRelation(relation, &writer);
  return out;
}

Status WriteCsv(const Relation& relation, const std::string& path,
                const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot write '" + path + "'");
  }
  out << ToCsv(relation, options);
  return out.good() ? Status::OK()
                    : Status::Internal("short write to '" + path + "'");
}

}  // namespace rasql::storage
