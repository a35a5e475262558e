/**
 * @file
 * Minimal gem5-flavoured diagnostics on stderr: warn for suspicious
 * but survivable conditions, panic for internal invariant violations
 * (aborts), fatal for unrecoverable user configuration errors (clean
 * exit).
 */

#ifndef BEACONGNN_SIM_LOG_H
#define BEACONGNN_SIM_LOG_H

#include <cstdio>
#include <cstdlib>
#include <string>

namespace beacongnn::sim {

/** Something works, but suspiciously; always printed. */
void warn(const std::string &msg);

/**
 * Internal invariant violated — a simulator bug. Prints and aborts
 * (may dump core / trap into a debugger).
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Unrecoverable user error (bad configuration, impossible request).
 * Prints and exits with status 1.
 */
[[noreturn]] void fatal(const std::string &msg);

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_LOG_H
