#include "common/logging.hpp"

#include <cstdlib>
#include <iostream>

namespace treedl::internal {

void CheckFailed(const char* file, int line, const char* expr,
                 const std::string& extra) {
  std::cerr << "[FATAL " << file << ":" << line << "] Check failed: " << expr;
  if (!extra.empty()) std::cerr << " — " << extra;
  std::cerr << std::endl;
  std::abort();
}

}  // namespace treedl::internal
