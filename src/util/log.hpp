// Minimal leveled logging to stderr.
//
// The library itself is quiet by default (Level::kWarn); examples and bench
// harnesses raise the level to kInfo so training progress is visible.
#pragma once

#include <cstdarg>
#include <string>

namespace nshd::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global log threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// printf-style logging.  Thread-safe: the level is atomic, and each line,
/// whatever its length, reaches stderr in a single write, so concurrent
/// lines do not interleave (on a pipe, for lines up to PIPE_BUF bytes).
void logf(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

#define NSHD_LOG_DEBUG(...) ::nshd::util::logf(::nshd::util::LogLevel::kDebug, __VA_ARGS__)
#define NSHD_LOG_INFO(...) ::nshd::util::logf(::nshd::util::LogLevel::kInfo, __VA_ARGS__)
#define NSHD_LOG_WARN(...) ::nshd::util::logf(::nshd::util::LogLevel::kWarn, __VA_ARGS__)
#define NSHD_LOG_ERROR(...) ::nshd::util::logf(::nshd::util::LogLevel::kError, __VA_ARGS__)

}  // namespace nshd::util
