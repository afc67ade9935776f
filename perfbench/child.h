// The serving processes under test (habit_serve, habit_route) run as child
// processes of perfbench: spawned with their output in a log file, waited
// on until they print their listening port, measured for peak RSS from
// /proc, and always stopped and reaped — SIGTERM first, SIGKILL if the
// clean shutdown stalls. A child also dies with perfbench (parent-death
// signal), so a crashed run leaves nothing behind.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/status.h"

namespace perfbench {

class Child {
 public:
  /// Starts `argv` (argv[0] is the executable path) with stdout and
  /// stderr appended to `log_path`.
  static habit::Result<std::unique_ptr<Child>> Spawn(
      const std::vector<std::string>& argv, const std::string& log_path);

  /// Stops and reaps the child if still running.
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Blocks until the log shows "listening on 127.0.0.1:<port>" and
  /// returns the port; fails when the child exits first or `timeout_s`
  /// passes.
  habit::Result<uint16_t> WaitListening(double timeout_s);

  /// Peak resident set (VmHWM) of the child, in MB; 0 when unreadable.
  double PeakRssMb() const;

  /// SIGTERM, then SIGKILL after `grace_s`; reaps the child. OK when it
  /// exited with status 0 after SIGTERM.
  habit::Status Stop(double grace_s = 10.0);

 private:
  Child(pid_t pid, std::string log_path)
      : pid_(pid), log_path_(std::move(log_path)) {}

  pid_t pid_ = -1;
  bool reaped_ = false;
  std::string log_path_;
};

/// Peak resident set (VmHWM) of process `pid` ("self" for this process), MB.
double PeakRssMb(const std::string& pid);

/// Resets the calling process's VmHWM to its current RSS (Linux
/// clear_refs "5"); false when the kernel refuses.
bool ResetPeakRss();

}  // namespace perfbench
