#include "common/error.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>

namespace nb {

namespace {
std::mutex warn_mutex;
std::set<std::string>& warned_keys() {
  static std::set<std::string> keys;
  return keys;
}
}  // namespace

bool warn_once(const std::string& key, const std::string& message) {
  {
    const std::lock_guard<std::mutex> lock(warn_mutex);
    if (!warned_keys().insert(key).second) return false;
  }
  // Flush stdout first: a bench row still buffered there would otherwise
  // be split by the warning when both streams share a terminal or file.
  std::fflush(stdout);
  std::fprintf(stderr, "noisebalance: warning: %s\n", message.c_str());
  return true;
}

bool warned(const std::string& key) {
  const std::lock_guard<std::mutex> lock(warn_mutex);
  return warned_keys().count(key) != 0;
}

}  // namespace nb

namespace nb::detail {

[[noreturn]] void throw_contract_error(std::string_view condition, std::string_view message,
                                       std::string_view file, long line) {
  std::ostringstream os;
  os << "precondition violated: " << message << " [" << condition << "] at " << file << ":" << line;
  throw contract_error(os.str());
}

[[noreturn]] void fail_assert(std::string_view condition, std::string_view file, long line) {
  std::fprintf(stderr, "noisebalance internal invariant failed: %.*s at %.*s:%ld\n",
               static_cast<int>(condition.size()), condition.data(),
               static_cast<int>(file.size()), file.data(), line);
  std::abort();
}

}  // namespace nb::detail
