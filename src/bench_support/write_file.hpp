#pragma once
// Result files of the benches and tools. A bench whose output cannot be
// written must fail rather than print "written" and exit 0, so every
// output file goes through one writer that opens, writes, closes and
// reports.

#include <functional>
#include <iosfwd>
#include <string>

#include "util/json.hpp"

namespace simas::bench_support {

/// Open `path` (truncating), hand the stream to `body`, and close it.
/// Returns false, after naming `path` on stderr, when the file cannot be
/// opened or any write to it fails.
bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body);

/// write_file with json::write(os, doc, 2) as the body: the form of every
/// BENCH_*.json result.
bool write_file(const std::string& path, const json::Value& doc);

}  // namespace simas::bench_support
