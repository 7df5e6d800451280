#include "client.h"

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstdio>
#include <deque>
#include <fcntl.h>
#include <memory>
#include <poll.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>

namespace perfbench {

ServerProcess::~ServerProcess() { Kill(); }

void ServerProcess::Kill() {
  if (to_child_ >= 0) ::close(to_child_);
  if (from_child_ >= 0) ::close(from_child_);
  to_child_ = from_child_ = -1;
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
}

bool ServerProcess::Spawn(const std::string& binary, std::string* error) {
  int in[2], out[2];
  if (::pipe2(in, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  if (::pipe2(out, O_CLOEXEC) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    *error = "pipe failed";
    return false;
  }
  pid_ = ::fork();
  if (pid_ < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid_ == 0) {
    ::dup2(in[0], 0);
    ::dup2(out[1], 1);
    ::execl(binary.c_str(), "bvqserve", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(in[0]);
  ::close(out[1]);
  to_child_ = in[1];
  from_child_ = out[0];
  return true;
}

bool ServerProcess::Send(const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(to_child_, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool ServerProcess::ReadLine(std::string* line, int timeout_ms) {
  while (true) {
    const auto nl = buffer_.find('\n', offset_);
    if (nl != std::string::npos) {
      line->assign(buffer_, offset_, nl - offset_);
      offset_ = nl + 1;
      if (offset_ > (1u << 16)) {
        buffer_.erase(0, offset_);
        offset_ = 0;
      }
      return true;
    }
    pollfd p{from_child_, POLLIN, 0};
    const int ready = ::poll(&p, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[1 << 16];
    const ssize_t n = ::read(from_child_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool ServerProcess::Quit() {
  bool ok = Send("quit\n");
  ::close(to_child_);
  to_child_ = -1;
  std::string line;
  bool saw_quit = false;
  while (ReadLine(&line)) saw_quit = saw_quit || line == "ok quit";
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  ::close(from_child_);
  from_child_ = -1;
  return ok && saw_quit && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

namespace {

struct Pending {
  Op op;
  Clock::time_point sent;
  std::size_t first = 0;  // session version at submission
  bool warmup = false;
};

// "ok eval 7" / "err rel s3: ..." -> ("ok", "eval", "7" / "s3:")
void Split3(const std::string& line, std::string* a, std::string* b,
            std::string* c) {
  std::istringstream is(line);
  is >> *a >> *b >> *c;
}

}  // namespace

std::map<std::string, double> SumStats(const std::string& stats_lines) {
  std::map<std::string, double> sums;
  std::istringstream lines(stats_lines);
  std::string line, field;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    while (fields >> field) {
      const auto eq = field.find('=');
      if (eq == std::string::npos) continue;
      char* end = nullptr;
      const double v = std::strtod(field.c_str() + eq + 1, &end);
      if (end != nullptr && *end == '\0') sums[field.substr(0, eq)] += v;
    }
  }
  return sums;
}

E2EResult RunEndToEnd(Workload& w, const E2EOptions& options,
                      Observations* obs) {
  E2EResult r;
  r.host_start = ReadHostState();
  auto fail = [&](const std::string& why) {
    r.ok = false;
    r.error = why;
    return r;
  };

  // ---- Setup: spawn, open + load every session, wait for every ack. ----
  std::string setup;
  for (const auto& s : w.sessions) {
    setup += "open " + s.name + "\nload " + s.name + " " + s.db_path + "\n";
  }
  std::unique_ptr<ServerProcess> server;
  for (std::size_t i = 0; i < options.setups; ++i) {
    auto proc = std::make_unique<ServerProcess>();
    const auto start = Clock::now();
    std::string error;
    if (!proc->Spawn(options.bvqserve, &error)) return fail(error);
    if (!proc->Send(setup)) return fail("bvqserve closed its input");
    std::string line;
    for (std::size_t acks = 0; acks < 2 * w.sessions.size(); ++acks) {
      if (!proc->ReadLine(&line)) return fail("bvqserve died during setup");
      if (line.rfind("ok open ", 0) != 0 && line.rfind("ok load ", 0) != 0) {
        return fail("setup: " + line);
      }
    }
    r.setup_s.push_back(MsSince(start, Clock::now()) / 1000.0);
    if (i + 1 < options.setups) {
      if (!proc->Quit()) return fail("bvqserve did not quit cleanly");
    } else {
      server = std::move(proc);
    }
  }

  // ---- Closed loop: warm-up, measured window, drain. ----
  std::unordered_map<std::uint64_t, Pending> evals;
  std::deque<Pending> writes;
  std::uint64_t next_id = 1;
  std::size_t warm_sent = 0, warm_done = 0;
  bool in_window = false, stopped = false;
  Clock::time_point t0, slice_start;
  double slice_cpu = 0.0, slice_steal = 0.0;
  std::size_t failures_printed = 0;
  const double slice_s = options.seconds / std::max(1.0, std::round(options.seconds));

  auto send_op = [&]() -> bool {
    Pending p;
    p.warmup = warm_sent < w.warmup.size();
    p.op = p.warmup ? w.warmup[warm_sent++] : w.NextOp();
    const SessionSpec& s = w.sessions[p.op.session];
    std::string line;
    if (p.op.kind == Op::kWrite) {
      obs->RecordWrite(p.op.session, p.op.rel, p.op.variant);
      line = WriteLine(s, p.op.rel, p.op.variant) + "\n";
    } else {
      p.first = obs->version(p.op.session);
      line = "eval " + std::to_string(next_id) + " " + s.name + " " +
             w.texts[p.op.text] + "\n";
    }
    ++r.attempted;
    p.sent = Clock::now();
    if (p.op.kind == Op::kWrite) {
      writes.push_back(p);
    } else {
      evals.emplace(next_id++, p);
    }
    return server->Send(line);
  };
  auto note_failure = [&](const Pending& p, const std::string& detail) {
    ++r.failed;
    if (failures_printed++ < 5) {
      std::printf("FAILED op session=%s %s: %s\n",
                  w.sessions[p.op.session].name.c_str(),
                  p.op.kind == Op::kWrite
                      ? "write"
                      : ("query=" + w.texts[p.op.text]).c_str(),
                  detail.c_str());
    }
  };
  auto open_slice = [&](Clock::time_point now) {
    r.slices.emplace_back();
    slice_start = now;
    slice_cpu = ProcessCpuMs(server->pid());
    slice_steal = static_cast<double>(ReadHostState().steal_ticks);
  };
  auto close_slice = [&](Clock::time_point now) {
    auto& sl = r.slices.back();
    sl.seconds = MsSince(slice_start, now) / 1000.0;
    sl.server_cpu_ms = ProcessCpuMs(server->pid()) - slice_cpu;
    sl.steal_ticks =
        static_cast<double>(ReadHostState().steal_ticks) - slice_steal;
  };
  // Peak RSS is read after w.rss_after_ops operations, sending more
  // (unmeasured) after the window if needed; 0 reads it at the end.
  const std::size_t rss_after = w.rss_after_ops;
  std::size_t ops_done = 0;
  const auto window_end_limit = std::chrono::seconds(60);
  // Bookkeeping after an operation completed at `now`.
  auto completed = [&](const Pending& p, Clock::time_point now, bool ok) {
    const double ms = ok ? MsSince(p.sent, now) : INFINITY;
    if (++ops_done == rss_after) {
      r.peak_rss_mb = ProcessPeakRssMb(server->pid());
      r.rss_ops = ops_done;
    }
    if (p.warmup) {
      if (++warm_done == w.warmup.size()) {
        in_window = true;
        t0 = now;
        open_slice(now);
      }
      return;
    }
    if (!in_window) return;
    if (p.op.kind == Op::kWrite) {
      r.write_ack_ms.push_back(ms);
    } else {
      r.slices.back().latency_ms.push_back(ms);
    }
    if (MsSince(slice_start, now) >= slice_s * 1000.0) {
      close_slice(now);
      if (MsSince(t0, now) >= (options.seconds - slice_s / 2) * 1000.0) {
        in_window = false;
        stopped = true;
      } else {
        open_slice(now);
      }
    }
  };

  std::string line, payload;
  std::uint64_t result_id = 0;
  bool in_result = false, result_ok = false;
  // After the window, keep the loop going (unmeasured) until the RSS
  // reading point, for at most a minute.
  auto more = [&] {
    return !stopped || (ops_done < rss_after &&
                        Clock::now() - t0 < window_end_limit +
                            std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(options.seconds)));
  };
  while (more() || !evals.empty() || !writes.empty()) {
    while (more() && evals.size() + writes.size() < w.in_flight) {
      if (!send_op()) return fail("bvqserve closed its input");
    }
    if (!server->ReadLine(&line)) return fail("bvqserve stopped answering");
    const auto now = Clock::now();
    if (in_result) {
      if (line == "end " + std::to_string(result_id)) {
        in_result = false;
        auto it = evals.find(result_id);
        if (it == evals.end()) return fail("result for unknown id: " + line);
        const Pending p = it->second;
        evals.erase(it);
        if (result_ok) {
          obs->evals.push_back({result_id, p.op.session, p.op.text, p.first,
                                obs->version(p.op.session),
                                obs->Intern(std::move(payload))});
        } else {
          note_failure(p, payload);
        }
        completed(p, now, result_ok);
        payload.clear();
      } else {
        payload += line;
        payload += '\n';
      }
      continue;
    }
    std::string a, b, c;
    Split3(line, &a, &b, &c);
    if (a == "result") {
      in_result = true;
      result_id = std::stoull(b);
      result_ok = c == "ok";
    } else if (a == "ok" && b == "eval") {
      // submit ack; the result block follows
    } else if ((a == "ok" || a == "err") && b == "rel" && !writes.empty()) {
      const Pending p = writes.front();
      writes.pop_front();
      if (a == "err") note_failure(p, line);
      completed(p, now, a == "ok");
    } else if (a == "err" && b == "eval") {
      const std::uint64_t id = std::stoull(c);
      auto it = evals.find(id);
      if (it == evals.end()) return fail("unexpected: " + line);
      const Pending p = it->second;
      evals.erase(it);
      note_failure(p, line);
      completed(p, now, false);
    } else {
      return fail("unexpected: " + line);
    }
  }

  // ---- After the window: optional idle write probe, stats, RSS, quit. ----
  if (options.write_probe) {
    for (int i = 0; i < 32; ++i) {
      const auto start = Clock::now();
      server->Send("rel " + w.sessions[0].name + " Wprobe/1 " +
                   std::to_string(i % w.sessions[0].domain) + " ;\n");
      if (!server->ReadLine(&line) || line.rfind("ok rel", 0) != 0) {
        return fail("write probe: " + line);
      }
      r.write_ack_ms.push_back(MsSince(start, Clock::now()));
    }
  }
  for (const auto& s : w.sessions) {
    server->Send("stats " + s.name + "\n");
    if (!server->ReadLine(&line) || line.rfind("stats session=", 0) != 0) {
      return fail("stats: " + line);
    }
    r.stats_lines += line + "\n";
  }
  if (r.rss_ops == 0) {
    r.peak_rss_mb = ProcessPeakRssMb(server->pid());
    r.rss_ops = ops_done;
  }
  if (!server->Quit()) return fail("bvqserve did not quit cleanly");
  r.ok = true;
  return r;
}

}  // namespace perfbench
