#include "util/log.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <vector>

namespace nshd::util {
namespace {
// Relaxed is enough: the level is an independent flag, and a worker that
// reads a stale value for a moment only keeps or drops one more line.
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void logf(LogLevel level, const char* fmt, ...) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  // The whole line is formatted into one buffer and handed to the kernel
  // in one write(2), so lines from concurrent threads never interleave.
  // Most lines fit the stack buffer; a longer one is formatted again into
  // a heap buffer of the size the first pass reported.
  char stack_line[1024];
  char* line = stack_line;
  std::vector<char> heap_line;
  const int prefix = std::snprintf(line, sizeof stack_line, "[nshd %s] ",
                                   level_tag(level));
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  int body = std::vsnprintf(line + prefix, sizeof stack_line - prefix, fmt, args);
  va_end(args);
  if (body < 0) body = 0;
  const std::size_t len = static_cast<std::size_t>(prefix + body);
  if (len + 1 > sizeof stack_line) {  // +1: the newline replaces the NUL
    heap_line.resize(len + 1);
    line = heap_line.data();
    std::memcpy(line, stack_line, static_cast<std::size_t>(prefix));
    std::vsnprintf(line + prefix, heap_line.size() - prefix, fmt, again);
  }
  va_end(again);
  line[len] = '\n';
  std::fflush(stderr);  // keep order with any stdio output already buffered
  const ssize_t written = ::write(STDERR_FILENO, line, len + 1);
  (void)written;
}

}  // namespace nshd::util
