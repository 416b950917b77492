// Machine-readable bench output (BENCH_hotpath.json).
//
// A bench appends its results as one named top-level section of a shared
// JSON file, so a script (tools/check.sh smoke mode) or a human diffing
// before/after can read module latencies and deadline margins without
// scraping the pretty-printed tables. No external JSON dependency: the
// writer emits a deliberately small dialect (flat objects of numbers and
// booleans), and the section merger only ever re-reads files this helper
// produced.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace nec::bench {

/// Writer for one flat JSON object of numbers and booleans. Keys must stay
/// free of `"`, `{`, `}` and `\` — NEC_CHECK'd, not escaped.
class JsonWriter {
 public:
  JsonWriter& Field(const char* key, double v) {
    Key(key);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& Field(const char* key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
    return *this;
  }

  /// Closes the object and returns its text. Call exactly once.
  std::string Finish() {
    out_ += '}';
    return std::move(out_);
  }

 private:
  void Key(const char* k) {
    for (const char* c = k; *c != '\0'; ++c) {
      NEC_CHECK_MSG(*c != '"' && *c != '{' && *c != '}' && *c != '\\',
                    "JsonWriter keys must not need escaping");
    }
    out_ += out_.size() == 1 ? "\"" : ", \"";
    out_ += k;
    out_ += "\": ";
  }

  std::string out_ = "{";
};

/// Replaces (or appends) the top-level section `name` of the JSON object
/// file at `path` with `object_text` (a balanced object from JsonWriter).
/// Creates the file when missing. Other benches' sections are preserved,
/// so several binaries can accrete into one BENCH_hotpath.json.
inline void WriteJsonSection(const std::string& path, const std::string& name,
                             const std::string& object_text) {
  // Parse the existing file into (name, raw object) pairs with a brace
  // counter. Safe because the only strings this file can contain are
  // keys, and JsonWriter rejects braces in those at write time.
  std::vector<std::pair<std::string, std::string>> sections;
  std::string in;
  {
    std::ifstream f(path);
    if (f) {
      std::ostringstream ss;
      ss << f.rdbuf();
      in = ss.str();
    }
  }
  std::size_t i = in.find('{');
  while (i != std::string::npos) {
    const std::size_t q0 = in.find('"', i + 1);
    if (q0 == std::string::npos) break;
    const std::size_t q1 = in.find('"', q0 + 1);
    if (q1 == std::string::npos) break;
    const std::size_t b = in.find('{', q1 + 1);
    if (b == std::string::npos) break;
    int depth = 0;
    std::size_t e = b;
    for (; e < in.size(); ++e) {
      if (in[e] == '{') ++depth;
      if (in[e] == '}' && --depth == 0) break;
    }
    if (e >= in.size()) break;
    sections.emplace_back(in.substr(q0 + 1, q1 - q0 - 1),
                          in.substr(b, e - b + 1));
    i = e;  // next iteration scans for the following key's quote
  }

  bool replaced = false;
  for (auto& [key, value] : sections) {
    if (key == name) {
      value = object_text;
      replaced = true;
    }
  }
  if (!replaced) sections.emplace_back(name, object_text);

  std::ofstream out(path, std::ios::trunc);
  NEC_CHECK_MSG(out.good(), "cannot write " << path);
  out << "{\n";
  for (std::size_t s = 0; s < sections.size(); ++s) {
    out << "  \"" << sections[s].first << "\": " << sections[s].second
        << (s + 1 < sections.size() ? "," : "") << "\n";
  }
  out << "}\n";
}

/// Output path for the hot-path perf sections: $NEC_BENCH_JSON if set,
/// else BENCH_hotpath.json in the working directory.
inline std::string BenchJsonPath() {
  const char* env = std::getenv("NEC_BENCH_JSON");
  return env != nullptr && *env != '\0' ? env : "BENCH_hotpath.json";
}

/// True when $NEC_BENCH_SMOKE is set non-empty: benches shrink their
/// workloads to seconds so tools/check.sh can validate wiring + JSON
/// output without paying full measurement time. Smoke numbers are not
/// comparable baselines.
inline bool BenchSmokeMode() {
  const char* env = std::getenv("NEC_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

}  // namespace nec::bench
