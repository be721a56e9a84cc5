#include "host.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <stdexcept>
#include <sstream>
#include <thread>

#include "ledger.hpp"

extern char** environ;

namespace perfbench {

std::vector<double> run_children(int runs, const std::vector<std::string>& args) {
  std::vector<std::string> argv_store = {"/proc/self/exe"};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<double> values;
  for (int i = 0; i < runs; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string output;
    char buf[4096];
    for (ssize_t n; rc == 0 && (n = read(fds[0], buf, sizeof buf)) > 0;)
      output.append(buf, static_cast<size_t>(n));
    close(fds[0]);
    if (rc != 0) throw std::runtime_error("posix_spawn failed");
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
      throw std::runtime_error("child perfbench failed");
    const size_t last = output.find_last_not_of('\n');
    const size_t start = output.rfind('\n', last);
    values.push_back(std::stod(
        output.substr(start == std::string::npos ? 0 : start + 1)));
  }
  return values;
}

double seconds_of(const std::function<void()>& fn) {
  const int64_t t0 = now_ns();
  fn();
  return (now_ns() - t0) / 1e9;
}

std::string host_facts() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);)
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  bool avx2 = false, avx512 = false;
  const char* kernels = "baseline";
#if defined(__x86_64__)
  avx2 = __builtin_cpu_supports("avx2");
  avx512 = __builtin_cpu_supports("avx512f");
  if (__builtin_cpu_supports("x86-64-v4"))
    kernels = "x86-64-v4";
  else if (__builtin_cpu_supports("x86-64-v3"))
    kernels = "x86-64-v3";
#endif
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency() << " cpu=\"" << model
      << "\" avx2=" << (avx2 ? "yes" : "no")
      << " avx512=" << (avx512 ? "yes" : "no")
      << " batch_kernels=" << kernels;
  return out.str();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

}  // namespace perfbench
