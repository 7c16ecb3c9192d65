#include "util/options.hpp"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <string_view>

namespace simas {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "true";  // bare flag
    }
  }
}

bool Options::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string Options::get(const std::string& key, const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

long long Options::get_int(const std::string& key, long long def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Options::get_double(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

bool Options::get_bool(const std::string& key, bool def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return it->second == "1" || it->second == "true" || it->second == "yes" ||
         it->second == "on";
}

std::vector<int> Options::get_int_list(const std::string& key,
                                       std::vector<int> def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  std::vector<int> out;
  const std::string& list = it->second;
  std::size_t pos = 0;
  while (pos < list.size()) {
    const std::size_t comma = list.find(',', pos);
    out.push_back(std::stoi(list.substr(pos, comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

bool Options::only(std::initializer_list<const char*> known,
                   std::ostream& err) const {
  bool ok = true;
  for (const auto& [key, value] : kv_) {
    if (std::find(known.begin(), known.end(), std::string_view(key)) !=
        known.end())
      continue;
    err << "unknown arg: --" << key << "\n";
    ok = false;
  }
  for (const std::string& arg : positional_) {
    err << "unknown arg: " << arg << "\n";
    ok = false;
  }
  return ok;
}

}  // namespace simas
