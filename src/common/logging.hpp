// Check macros.
//
// TREEDL_CHECK is always on (used to enforce internal invariants whose
// violation indicates a programming error, per the RocksDB "fail fast on
// corruption" philosophy). TREEDL_DCHECK compiles away in NDEBUG builds.
#ifndef TREEDL_COMMON_LOGGING_HPP_
#define TREEDL_COMMON_LOGGING_HPP_

#include <sstream>
#include <string>

namespace treedl {

namespace internal {

/// Prints the failed check to stderr and aborts. Used by check macros.
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& extra);

/// Accumulates detail text for a failing check, then aborts in its destructor.
class CheckFailStream {
 public:
  CheckFailStream(const char* file, int line, const char* expr)
      : file_(file), line_(line), expr_(expr) {}
  [[noreturn]] ~CheckFailStream() { CheckFailed(file_, line_, expr_, stream_.str()); }

  template <typename T>
  CheckFailStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* expr_;
  std::ostringstream stream_;
};

}  // namespace internal

#define TREEDL_CHECK(cond)                                       \
  if (cond) {                                                    \
  } else                                                         \
    ::treedl::internal::CheckFailStream(__FILE__, __LINE__, #cond)

#ifdef NDEBUG
#define TREEDL_DCHECK(cond) \
  if (true) {               \
  } else                    \
    ::treedl::internal::CheckFailStream(__FILE__, __LINE__, #cond)
#else
#define TREEDL_DCHECK(cond) TREEDL_CHECK(cond)
#endif

}  // namespace treedl

#endif  // TREEDL_COMMON_LOGGING_HPP_
