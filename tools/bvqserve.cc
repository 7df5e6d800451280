// bvqserve — the bvq serving layer over a newline-delimited request
// protocol. The grammar is the `help` response (serve::ProtocolHelpText in
// src/serve/server.cc); send `help` for the listing.
//
// Modes:
//   bvqserve [script]      read requests from stdin (or a script file),
//                          responses on stdout; exits after quit/EOF once
//                          every in-flight query has drained.
//   bvqserve --port=N      listen on 127.0.0.1:N, one handler thread per
//                          connection, all connections sharing one Server
//                          (sessions, admission, executor). A client
//                          disconnect cancels that connection's in-flight
//                          queries (remote cancellation via CancelHandle).
//
// Admission flags: --aggregate-mb=N (aggregate memory budget handed out to
// admitted queries), --max-concurrent=N, --queue-wait-ms=N (0 = reject
// instead of queue), --queue-max=N, --lanes=N (executor threads; one
// process scales with lanes). --cache-dir=DIR persists and prewarms each
// session's answer cache across restarts.

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/strings.h"
#include "serve/server.h"

namespace {

using namespace bvq;

// Extracts the query id from an "eval <id> ..." request so a connection
// can cancel its own in-flight work on disconnect.
bool EvalRequestId(const std::string& line, std::size_t* id) {
  std::istringstream is(line);
  std::string cmd, tok;
  return (is >> cmd >> tok) && cmd == "eval" && ParseSizeT(tok, id);
}

// Extracts the query id from the first line of a "result <id> ..." block.
bool ResultBlockId(const std::string& chunk, std::size_t* id) {
  if (chunk.rfind("result ", 0) != 0) return false;
  std::istringstream is(chunk);
  std::string cmd, tok;
  return (is >> cmd >> tok) && ParseSizeT(tok, id);
}

// One TCP client's view of the shared Server: it remembers the eval ids the
// client submitted and which of them came back, so a disconnect cancels
// exactly the work the client left unfinished.
class Connection {
 public:
  Connection(serve::Server& server, serve::Server::Emit emit)
      : server_(server), state_(std::make_shared<State>()) {
    state_->emit = std::move(emit);
  }

  void Handle(const std::string& line) {
    std::size_t id = 0;
    if (EvalRequestId(line, &id)) {
      std::lock_guard<std::mutex> lock(state_->mutex);
      // Completed ids are dead weight on a long-lived connection: drop them
      // (and their done-markers) before registering the new one. A reused
      // id sheds its stale marker too, or its new run would never be
      // cancelled on disconnect.
      auto& evals = state_->my_evals;
      for (auto it = evals.begin(); it != evals.end();) {
        if (state_->done.erase(*it) > 0) {
          it = evals.erase(it);
        } else {
          ++it;
        }
      }
      state_->done.erase(id);
      evals.push_back(id);
    }
    // The wrapper keeps the connection state alive for as long as a late
    // completion block can fire, and records which ids came back so the
    // disconnect path only cancels genuinely unfinished work.
    server_.HandleLine(line, [state = state_](const std::string& chunk) {
      std::size_t done_id = 0;
      if (ResultBlockId(chunk, &done_id)) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->done.insert(done_id);
      }
      state->emit(chunk);
    });
  }

  // Client went away: cancel whatever it left in flight.
  void Disconnect() {
    std::vector<std::size_t> live;
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      for (const std::size_t id : state_->my_evals) {
        if (state_->done.count(id) == 0) live.push_back(id);
      }
    }
    // Races with completion are benign: a just-finished query comes back
    // NotFound, which is exactly what we want.
    for (const std::size_t id : live) {
      (void)server_.Cancel(id, "client disconnected");
    }
  }

 private:
  struct State {
    serve::Server::Emit emit;
    std::mutex mutex;                 // guards my_evals / done
    std::vector<std::size_t> my_evals;
    std::set<std::size_t> done;       // ids whose result block was emitted
  };

  serve::Server& server_;
  std::shared_ptr<State> state_;
};

// Stream mode: every line goes straight to the server, whose emits are
// already serialized into whole chunks.
void ServeStream(serve::Server& server, std::istream& in) {
  const serve::Server::Emit emit = [](const std::string& chunk) {
    std::fwrite(chunk.data(), 1, chunk.size(), stdout);
    std::fflush(stdout);
  };
  std::string line;
  while (!server.closed() && std::getline(in, line)) {
    server.HandleLine(line, emit);
  }
  server.Drain();
}

int ServeTcp(serve::Server& server, int port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("bvqserve: socket");
    return 1;
  }
  int reuse = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 16) < 0) {
    std::perror("bvqserve: bind/listen");
    ::close(listener);
    return 1;
  }
  // --port=0 asks the kernel for an ephemeral port; report the one we got
  // so a test harness can parse it instead of guessing.
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port = ntohs(bound.sin_port);
  }
  std::fprintf(stderr, "bvqserve: listening on 127.0.0.1:%d\n", port);

  struct ConnState {
    std::mutex mutex;
    int fd = -1;
    bool open = true;
  };
  std::mutex conns_mutex;
  std::vector<std::shared_ptr<ConnState>> conns;
  std::vector<std::thread> handlers;
  // Poll with a timeout so a `quit` handled on some connection thread stops
  // the listener too: accepting after close would hand new clients a dead
  // server.
  while (!server.closed()) {
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) break;
    auto state = std::make_shared<ConnState>();
    state->fd = conn;
    {
      std::lock_guard<std::mutex> lock(conns_mutex);
      conns.push_back(state);
    }
    handlers.emplace_back([&server, state] {
      // The write side outlives the handler: eval done-callbacks capture it
      // and may fire after disconnect (cancellation is asynchronous, so a
      // cancelled query can still complete later). Every send is guarded by
      // the shared mutex + `open` flag; the handler flips `open` under the
      // mutex before ::close(conn), so a late completion block is a no-op —
      // it can neither write to a closed descriptor nor leak into an
      // unrelated connection that recycled the fd number.
      auto write_all = [state](const std::string& chunk) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->open) return;  // client gone; drop the chunk
        std::size_t off = 0;
        while (off < chunk.size()) {
          const ssize_t n = ::send(state->fd, chunk.data() + off,
                                   chunk.size() - off, MSG_NOSIGNAL);
          if (n <= 0) {
            // Latch closed: without this every later block would retry the
            // dead socket, and the disconnect path would still think the
            // client might hear a cancellation result.
            state->open = false;
            return;
          }
          off += static_cast<std::size_t>(n);
        }
      };
      Connection client(server, write_all);
      std::string buffer, line;
      char chunk[4096];
      bool open = true;
      while (open && !server.closed()) {
        const ssize_t n = ::recv(state->fd, chunk, sizeof(chunk), 0);
        if (n <= 0) break;
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = buffer.find('\n')) != std::string::npos) {
          line = buffer.substr(0, nl);
          buffer.erase(0, nl + 1);
          client.Handle(line);
          if (server.closed()) {
            open = false;
            break;
          }
        }
      }
      // Client disconnect → cancel whatever it left running.
      client.Disconnect();
      // Close the write side before the fd: once `open` drops under the
      // mutex, no in-progress send holds the fd and no future one starts.
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->open = false;
      }
      ::close(state->fd);
    });
  }
  ::close(listener);
  // Kick every connection still blocked in recv so its handler unwinds;
  // the handler owns the close.
  {
    std::lock_guard<std::mutex> lock(conns_mutex);
    for (const auto& state : conns) {
      std::lock_guard<std::mutex> conn_lock(state->mutex);
      if (state->open) ::shutdown(state->fd, SHUT_RDWR);
    }
  }
  for (auto& handler : handlers) handler.join();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeOptions options;
  int port = -1;
  const char* script_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* name, std::size_t* out) {
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      if (!ParseSizeT(std::string_view(arg).substr(prefix.size()), out)) {
        std::fprintf(stderr, "bvqserve: bad number in %s\n", arg.c_str());
        std::exit(2);
      }
      return true;
    };
    std::size_t v = 0;
    if (value_of("--port", &v)) {
      if (v > 65535) {
        std::fprintf(stderr, "bvqserve: --port=%zu out of range (max 65535)\n",
                     v);
        return 2;
      }
      port = static_cast<int>(v);
    } else if (value_of("--aggregate-mb", &v)) {
      options.admission.aggregate_mem_budget_bytes = v << 20;
    } else if (value_of("--max-concurrent", &v)) {
      options.admission.max_concurrent_queries = v;
    } else if (value_of("--queue-wait-ms", &v)) {
      options.admission.queue_wait_ms = v;
    } else if (value_of("--queue-max", &v)) {
      options.admission.max_queue_length = v;
    } else if (value_of("--lanes", &v)) {
      options.executor_threads = v;
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      options.cache_dir = arg.substr(std::string("--cache-dir=").size());
      if (options.cache_dir.empty()) {
        std::fprintf(stderr, "bvqserve: --cache-dir needs a path\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bvqserve [--port=N] [--aggregate-mb=N] "
          "[--max-concurrent=N] [--queue-wait-ms=N] [--queue-max=N] "
          "[--lanes=N] [--cache-dir=DIR] [script]\n");
      return 0;
    } else if (script_path == nullptr && arg.rfind("--", 0) != 0) {
      script_path = argv[i];
    } else {
      std::fprintf(stderr, "bvqserve: unexpected argument %s\n",
                   argv[i]);
      return 2;
    }
  }

  serve::Server server(options);
  if (port >= 0) return ServeTcp(server, port);
  if (script_path != nullptr) {
    std::ifstream script(script_path);
    if (!script) {
      std::fprintf(stderr, "bvqserve: cannot open %s\n", script_path);
      return 1;
    }
    ServeStream(server, script);
    return 0;
  }
  ServeStream(server, std::cin);
  return 0;
}
