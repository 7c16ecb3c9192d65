#include "bench_support/write_file.hpp"

#include <fstream>
#include <iostream>

namespace simas::bench_support {

bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << " for writing\n";
    return false;
  }
  body(os);
  os.close();
  if (!os) {
    std::cerr << "error writing " << path << "\n";
    return false;
  }
  return true;
}

bool write_file(const std::string& path, const json::Value& doc) {
  return write_file(path,
                    [&doc](std::ostream& os) { json::write(os, doc, 2); });
}

}  // namespace simas::bench_support
