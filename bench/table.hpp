#pragma once

#include <unistd.h>

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/json.hpp"

/// \file table.hpp
/// Minimal fixed-width table printer shared by the experiment binaries, so
/// every bench emits its results in the same readable layout — and, when
/// run with `--json FILE`, the same results as a machine-readable document
/// (schema "ecfd.bench.v1": one object per table, headers + typed rows,
/// grouped under the section titles). Usage in a bench main:
///
///   int main(int argc, char** argv) {
///     ecfd::bench::init(argc, argv, "e4_detection_latency");
///     ...print tables as before...
///     return ecfd::bench::finish();
///   }
///
/// Everything printed through Table/section is mirrored into the JSON
/// sink; plain std::cout prose is console-only by design.

namespace ecfd::bench {

namespace detail {

/// Collects the JSON mirror of everything the bench prints.
struct JsonSink {
  bool active{false};
  std::string bench;
  std::string schema{"ecfd.bench.v1"};
  std::string path;
  std::string section;     ///< current section title
  std::string body;        ///< accumulated "tables" array contents
  bool any_table{false};
  bool in_table{false};    ///< a table object is open (awaiting rows)
  bool any_row{false};
};

inline JsonSink& sink() {
  static JsonSink s;
  return s;
}

inline void close_open_table() {
  JsonSink& s = sink();
  if (s.in_table) {
    s.body += "\n      ]\n    }";
    s.in_table = false;
  }
}

/// One cell as a JSON token: arithmetic values stay numbers, everything
/// else becomes a string.
template <class T>
std::string json_cell(const T& value) {
  if constexpr (std::is_arithmetic_v<T>) {
    std::ostringstream os;
    os << value;
    return os.str();
  } else {
    std::ostringstream os;
    os << value;
    std::string out = "\"";
    obs::json::escape_into(&out, os.str());
    out += "\"";
    return out;
  }
}

}  // namespace detail

/// Parses bench-wide flags (currently `--json FILE`; "-" = stdout).
/// Call first in main(); unknown arguments are ignored so binaries keep
/// tolerating ad-hoc flags. Benches whose tables differ structurally from
/// the default experiment shape pass their own \p schema name (bench_net
/// emits "ecfd.bench_net.v1") so validators can gate each shape strictly.
inline void init(int argc, char** argv, const std::string& bench_name,
                 const std::string& schema = "ecfd.bench.v1") {
  auto& s = detail::sink();
  s.bench = bench_name;
  s.schema = schema;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      s.active = true;
      s.path = argv[i + 1];
    }
  }
}

/// Writes the JSON document if --json was given. Returns the process exit
/// code (0, or 2 when the output file cannot be written).
inline int finish() {
  auto& s = detail::sink();
  if (!s.active) return 0;
  detail::close_open_table();
  std::string j = "{\n  \"schema\": \"";
  obs::json::escape_into(&j, s.schema);
  j += "\",\n  \"bench\": \"";
  obs::json::escape_into(&j, s.bench);
  // Machine context, so checked-in baselines say what they were measured
  // on. Shape-gated (not value-gated) by tools/check_bench_schema.py.
  const long page = ::sysconf(_SC_PAGESIZE);
  j += "\",\n  \"host\": {\n    \"hardware_threads\": ";
  j += std::to_string(std::thread::hardware_concurrency());
  j += ",\n    \"page_size\": " + std::to_string(page > 0 ? page : 0);
  j += ",\n    \"build_type\": \"";
  // This project strips -DNDEBUG from Release flags (asserts stay on in
  // every build), so optimization level is the meaningful distinction.
#if defined(__OPTIMIZE__) || defined(NDEBUG)
  j += "release";
#else
  j += "debug";
#endif
  j += "\"\n  },\n  \"tables\": [";
  j += s.body;
  j += s.any_table ? "\n  ]\n}\n" : "]\n}\n";
  if (s.path == "-") {
    std::fputs(j.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(s.path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", s.path.c_str());
    return 2;
  }
  std::fputs(j.c_str(), f);
  std::fclose(f);
  return 0;
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers, int col_width = 14)
      : headers_(std::move(headers)), width_(col_width) {}

  void print_header() const {
    for (const auto& h : headers_) {
      std::cout << std::setw(width_) << h;
    }
    std::cout << '\n';
    std::cout << std::string(headers_.size() * static_cast<std::size_t>(width_), '-')
              << '\n';
    auto& s = detail::sink();
    if (!s.active) return;
    detail::close_open_table();
    if (s.any_table) s.body += ",";
    s.any_table = true;
    s.in_table = true;
    s.any_row = false;
    s.body += "\n    {\n      \"section\": \"";
    obs::json::escape_into(&s.body, s.section);
    s.body += "\",\n      \"headers\": [";
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      if (i) s.body += ", ";
      s.body += "\"";
      obs::json::escape_into(&s.body, headers_[i]);
      s.body += "\"";
    }
    s.body += "],\n      \"rows\": [";
  }

  template <class... Cells>
  void print_row(const Cells&... cells) const {
    (print_cell(cells), ...);
    std::cout << '\n';
    auto& s = detail::sink();
    if (!s.active || !s.in_table) return;
    if (s.any_row) s.body += ",";
    s.any_row = true;
    s.body += "\n        [";
    bool first = true;
    (
        [&] {
          if (!first) s.body += ", ";
          first = false;
          s.body += detail::json_cell(cells);
        }(),
        ...);
    s.body += "]";
  }

 private:
  template <class T>
  void print_cell(const T& value) const {
    std::ostringstream os;
    if constexpr (std::is_floating_point_v<T>) {
      os << std::fixed << std::setprecision(1) << value;
    } else {
      os << value;
    }
    std::cout << std::setw(width_) << os.str();
  }

  std::vector<std::string> headers_;
  int width_;
};

inline void section(const std::string& title) {
  std::cout << "\n== " << title << " ==\n";
  detail::sink().section = title;
}

}  // namespace ecfd::bench
