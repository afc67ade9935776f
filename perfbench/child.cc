#include "child.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

habit::Result<std::unique_ptr<Child>> Child::Spawn(
    const std::vector<std::string>& argv, const std::string& log_path) {
  if (argv.empty()) return habit::Status::InvalidArgument("empty argv");
  // Everything the child touches between fork and exec is prepared here:
  // after fork in a threaded process only async-signal-safe calls are
  // allowed.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return habit::Status::IoError("cannot open child log " + log_path);
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return habit::Status::Internal("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // perfbench already died
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  return std::unique_ptr<Child>(new Child(pid, log_path));
}

Child::~Child() { (void)Stop(); }

habit::Result<uint16_t> Child::WaitListening(double timeout_s) {
  static const std::string kMarker = "listening on 127.0.0.1:";
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (NowNs() < deadline) {
    std::ifstream log(log_path_);
    std::stringstream text;
    text << log.rdbuf();
    const std::string s = text.str();
    const size_t at = s.find(kMarker);
    if (at != std::string::npos) {
      const size_t begin = at + kMarker.size();
      size_t end = begin;
      while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
      if (end > begin && end < s.size()) {
        return static_cast<uint16_t>(std::stoi(s.substr(begin, end - begin)));
      }
    }
    int status = 0;
    if (!reaped_ && ::waitpid(pid_, &status, WNOHANG) == pid_) {
      reaped_ = true;
      return habit::Status::Internal("child exited before listening: " +
                                     s.substr(0, 2000));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return habit::Status::Timeout("child did not start listening in time");
}

double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double Child::PeakRssMb() const {
  return reaped_ ? 0.0 : perfbench::PeakRssMb(std::to_string(pid_));
}

habit::Status Child::Stop(double grace_s) {
  if (reaped_) return habit::Status::OK();
  ::kill(pid_, SIGTERM);
  const int64_t deadline = NowNs() + static_cast<int64_t>(grace_s * 1e9);
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (NowNs() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      reaped_ = true;
      return habit::Status::Timeout("child ignored SIGTERM; killed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  reaped_ = true;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return habit::Status::OK();
  return habit::Status::Internal("child exited uncleanly (status " +
                                 std::to_string(status) + ")");
}

}  // namespace perfbench
