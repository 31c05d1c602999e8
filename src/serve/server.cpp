#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "runtime/failpoint.h"

namespace ascend::serve {

namespace failpoint = runtime::failpoint;

namespace {

failpoint::Site fp_accept{"serve.accept"};
failpoint::Site fp_read{"serve.read"};
failpoint::Site fp_write{"serve.write"};

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Map one typed serving exception to its wire status. The single place the
/// runtime error taxonomy meets the protocol, shared by the submit path and
/// the completion pump.
Status status_of(const std::exception_ptr& err, std::uint32_t& retry_after_ms) {
  retry_after_ms = 0;
  try {
    std::rethrow_exception(err);
  } catch (const RetryAfterError& e) {
    retry_after_ms = static_cast<std::uint32_t>(e.retry_after.count());
    return Status::kRetryAfter;
  } catch (const runtime::QueueFullError&) {
    return Status::kRetryAfter;
  } catch (const runtime::DeadlineExceededError&) {
    return Status::kDeadlineExceeded;
  } catch (const runtime::WatchdogTimeoutError&) {
    return Status::kWatchdogTimeout;
  } catch (const runtime::EngineShutdownError&) {
    return Status::kShuttingDown;
  } catch (const runtime::UnknownVariantError&) {
    return Status::kUnknownVariant;
  } catch (const failpoint::InjectedFaultError&) {
    return Status::kInjectedFault;
  } catch (const std::invalid_argument&) {
    return Status::kBadFrame;  // payload/variant shape mismatch
  } catch (...) {
    return Status::kInternal;
  }
}

}  // namespace

Server::Server(ShardSet& shards, ServerOptions opts) : shards_(shards), opts_(std::move(opts)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::invalid_argument("Server: bad bind_address " + opts_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, opts_.backlog) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("bind/listen");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) throw_errno("epoll_create1/eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  // Front-door series live in the shard set's registry so one scrape covers
  // router, shards and socket layer.
  auto& m = *shards_.metrics();
  using runtime::metrics::SeriesKind;
  metric_callbacks_.push_back(m.register_callback(
      "ascend_frontdoor_bytes_in_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(bytes_in_.load()); }, "Request bytes read"));
  metric_callbacks_.push_back(m.register_callback(
      "ascend_frontdoor_bytes_out_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(bytes_out_.load()); }, "Response bytes written"));
  metric_callbacks_.push_back(m.register_callback(
      "ascend_frontdoor_open_connections", {}, SeriesKind::kGauge,
      [this] {
        return static_cast<double>(connections_accepted_.load() - connections_closed_.load());
      },
      "Connections currently open"));
  metric_callbacks_.push_back(m.register_callback(
      "ascend_frontdoor_connections_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(connections_accepted_.load()); },
      "Connections accepted"));
  metric_callbacks_.push_back(m.register_callback(
      "ascend_frontdoor_frames_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(frames_in_.load()); },
      "Well-formed request frames decoded"));
  metric_callbacks_.push_back(m.register_callback(
      "ascend_frontdoor_protocol_errors_total", {}, SeriesKind::kCounter,
      [this] { return static_cast<double>(protocol_errors_.load()); },
      "Malformed frames answered with a typed status"));
  for (std::size_t s = 0; s < status_counters_.size(); ++s)
    status_counters_[s] = &m.counter("ascend_frontdoor_responses_total",
                                     {{"status", status_name(static_cast<Status>(s))}},
                                     "Responses sent per wire status");

  const int pumps = std::max(1, opts_.completion_threads);
  pump_threads_.reserve(static_cast<std::size_t>(pumps));
  for (int i = 0; i < pumps; ++i) pump_threads_.emplace_back([this] { pump_loop(); });
  io_thread_ = std::thread([this] { io_loop(); });
}

Server::~Server() {
  stop_.store(true);
  wake_loop();
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::lock_guard<std::mutex> lock(pump_mu_);
    pump_stop_ = true;
  }
  pump_cv_.notify_all();
  for (auto& t : pump_threads_)
    if (t.joinable()) t.join();
  for (const runtime::metrics::CallbackId id : metric_callbacks_)
    shards_.metrics()->remove_callback(id);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, conn] : conns_) {
      std::lock_guard<std::mutex> cl(conn->mu);
      if (!conn->closed) {
        conn->closed = true;
        ::close(fd);
      }
    }
    conns_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

ServerStats Server::stats() const {
  ServerStats st;
  st.connections_accepted = connections_accepted_.load();
  st.connections_closed = connections_closed_.load();
  st.frames_in = frames_in_.load();
  st.responses_out = responses_out_.load();
  st.bytes_in = bytes_in_.load();
  st.bytes_out = bytes_out_.load();
  st.protocol_errors = protocol_errors_.load();
  return st;
}

void Server::wake_loop() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Server::drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  wake_loop();  // IO thread retires the listen socket
  drain_cv_.notify_all();
}

void Server::wait_drained() {
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] { return draining_.load() && open_requests_ == 0; });
  }
  // Responses are accounted when fully flushed to the socket, so reaching
  // here means every accepted request's bytes left the process.
}

void Server::note_request_done() {
  std::lock_guard<std::mutex> lock(drain_mu_);
  --open_requests_;
  if (open_requests_ == 0) drain_cv_.notify_all();
}

void Server::io_loop() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  bool listening = true;
  while (!stop_.load()) {
    if (draining_.load() && listening) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      listening = false;
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Write-interest handoffs from the completion pump: flush now, arm
    // EPOLLOUT only when bytes remain.
    std::vector<std::shared_ptr<Connection>> flushes;
    {
      std::lock_guard<std::mutex> lock(epollout_mu_);
      flushes.swap(epollout_requests_);
    }
    for (const auto& conn : flushes) handle_writable(conn);

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drainv;
        while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        handle_accept();
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        const auto it = conns_.find(fd);
        if (it != conns_.end()) conn = it->second;
      }
      if (!conn) continue;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_connection(conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) handle_writable(conn);
      if (events[i].events & EPOLLIN) handle_readable(conn);
    }
  }
}

void Server::handle_accept() {
  for (;;) {
    const int cfd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) return;  // EAGAIN or transient error: wait for the next event
    try {
      ASCEND_FAILPOINT(fp_accept);
    } catch (...) {
      // Injected accept fault: the connection is dropped the way an
      // accept-time socket error would drop it. The loop keeps accepting.
      ::close(cfd);
      continue;
    }
    const int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(cfd);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.emplace(cfd, conn);
    }
    connections_accepted_.fetch_add(1);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = cfd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &ev);
  }
}

void Server::close_connection(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(conn->fd);
  }
  connections_closed_.fetch_add(1);
}

void Server::handle_readable(const std::shared_ptr<Connection>& conn) {
  try {
    ASCEND_FAILPOINT(fp_read);
  } catch (...) {
    // Injected read fault == the socket erroring mid-stream: this one
    // connection dies, the loop lives on.
    close_connection(conn);
    return;
  }
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<std::uint64_t>(n));
      conn->rbuf.insert(conn->rbuf.end(), buf, buf + n);
      if (!drain_rbuf(conn)) {
        // Unrecoverable protocol error: the typed response is queued; hang
        // up once it flushes.
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          conn->close_after_flush = true;
        }
        handle_writable(conn);
        return;
      }
      continue;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_connection(conn);
      return;
    }
    // EOF. A partial frame left in the buffer is a truncated request: the
    // peer may have half-closed and still reads, so answer the typed status
    // before hanging up.
    conn->read_eof = true;
    if (!conn->rbuf.empty()) {
      protocol_errors_.fetch_add(1);
      ResponseFrame resp;
      resp.status = Status::kTruncated;
      if (conn->rbuf.size() >= 16) {
        std::size_t consumed = 0;
        RequestFrame dummy;
        Status err{};
        std::uint64_t salvaged = 0;
        (void)decode_request(conn->rbuf.data(), conn->rbuf.size(), consumed, dummy, err, salvaged);
        resp.request_id = salvaged;
      }
      conn->rbuf.clear();
      send_response(conn, resp, false);
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->close_after_flush = true;
    }
    // Close now only when nothing is owed; otherwise the flush path closes
    // once the last owed response leaves.
    bool close_now;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      close_now = conn->wbuf.size() == conn->woff && conn->in_flight == 0;
    }
    if (close_now) close_connection(conn);
    return;
  }
}

bool Server::drain_rbuf(const std::shared_ptr<Connection>& conn) {
  std::size_t off = 0;
  bool ok = true;
  while (off < conn->rbuf.size()) {
    RequestFrame frame;
    std::size_t consumed = 0;
    Status error{};
    std::uint64_t error_id = 0;
    const DecodeResult r = decode_request(conn->rbuf.data() + off, conn->rbuf.size() - off,
                                          consumed, frame, error, error_id);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kError) {
      // Malformed frame: answer its typed status. Framing is lost (we do not
      // know where the next frame starts), so the connection closes after
      // the answer flushes — without taking the loop or other connections
      // down.
      protocol_errors_.fetch_add(1);
      ResponseFrame resp;
      resp.status = error;
      resp.request_id = error_id;
      send_response(conn, resp, false);
      ok = false;
      break;
    }
    off += consumed;
    frames_in_.fetch_add(1);
    handle_frame(conn, std::move(frame));
  }
  if (off > 0) conn->rbuf.erase(conn->rbuf.begin(), conn->rbuf.begin() + static_cast<long>(off));
  return ok;
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn, RequestFrame&& frame) {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++open_requests_;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    ++conn->in_flight;
  }
  if (frame.drain()) {
    // Graceful-drain control frame: stop admitting first, so a client that
    // sees the ack can rely on it. The ack is owed like any response, so
    // wait_drained() also waits for it. Work already accepted keeps
    // resolving.
    drain();
    ResponseFrame resp;
    resp.status = Status::kOk;
    resp.request_id = frame.request_id;
    send_response(conn, resp, true);
    return;
  }
  if (draining_.load()) {
    ResponseFrame resp;
    resp.status = Status::kShuttingDown;
    resp.request_id = frame.request_id;
    send_response(conn, resp, true);
    return;
  }
  try {
    ShardSet::Ticket ticket = shards_.submit(std::move(frame.payload), frame.options);
    Completion c;
    c.conn = conn;
    c.request_id = frame.request_id;
    c.shard = ticket.shard;
    c.future = std::move(ticket.future);
    {
      std::lock_guard<std::mutex> lock(pump_mu_);
      pump_queue_.push_back(std::move(c));
    }
    pump_cv_.notify_one();
  } catch (...) {
    // Typed submit-time failure (admission reject, unknown variant, injected
    // route fault): answered inline, the IO thread never blocked.
    std::uint32_t retry_after_ms = 0;
    const Status st = status_of(std::current_exception(), retry_after_ms);
    ResponseFrame resp;
    resp.status = st;
    resp.request_id = frame.request_id;
    resp.retry_after_ms = retry_after_ms;
    send_response(conn, resp, true);
  }
}

void Server::pump_loop() {
  for (;;) {
    Completion c;
    {
      std::unique_lock<std::mutex> lock(pump_mu_);
      pump_cv_.wait(lock, [this] { return pump_stop_ || !pump_queue_.empty(); });
      if (pump_queue_.empty()) return;  // stop and drained
      c = std::move(pump_queue_.front());
      pump_queue_.pop_front();
    }
    ResponseFrame resp;
    resp.request_id = c.request_id;
    resp.shard = static_cast<std::uint16_t>(c.shard);
    try {
      runtime::Prediction pred = c.future.get();
      resp.status = Status::kOk;
      resp.label = pred.label;
      resp.attempts = static_cast<std::uint8_t>(std::min(pred.attempts, 255));
      resp.degraded = pred.degraded;
      resp.logits = std::move(pred.logits);
    } catch (...) {
      std::uint32_t retry_after_ms = 0;
      resp.status = status_of(std::current_exception(), retry_after_ms);
      resp.retry_after_ms = retry_after_ms;
    }
    const std::shared_ptr<Connection> conn = c.conn.lock();
    if (conn) {
      send_response(conn, resp, true);
    } else {
      // Connection died before its answer: the request is still accounted
      // (drain must not wait forever on a peer that hung up).
      status_counters_[static_cast<std::size_t>(resp.status)]->add(1);
      note_request_done();
    }
  }
}

void Server::send_response(const std::shared_ptr<Connection>& conn, const ResponseFrame& resp,
                           bool completes_request) {
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) {
      dropped = true;
    } else {
      append_response(conn->wbuf, resp);
      if (completes_request && conn->in_flight > 0) --conn->in_flight;
    }
  }
  status_counters_[static_cast<std::size_t>(resp.status)]->add(1);
  if (dropped) {
    if (completes_request) note_request_done();
    return;
  }
  responses_out_.fetch_add(1);
  if (completes_request) note_request_done();
  if (std::this_thread::get_id() == io_thread_.get_id()) {
    handle_writable(conn);
  } else {
    request_write_interest(conn);
  }
}

void Server::request_write_interest(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(epollout_mu_);
    epollout_requests_.push_back(conn);
  }
  wake_loop();
}

bool Server::flush_locked(Connection& conn) {
  ASCEND_FAILPOINT(fp_write);
  while (conn.woff < conn.wbuf.size()) {
    const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                             conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn.woff += static_cast<std::size_t>(n);
      bytes_out_.fetch_add(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // peer gone / socket error
  }
  conn.wbuf.clear();
  conn.woff = 0;
  return true;
}

void Server::handle_writable(const std::shared_ptr<Connection>& conn) {
  bool failed = false;
  bool backlog = false;
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    try {
      failed = !flush_locked(*conn);
    } catch (...) {
      failed = true;  // injected write fault: the connection dies
    }
    backlog = conn->woff < conn->wbuf.size();
    close_now = !failed && !backlog &&
                (conn->close_after_flush || (conn->read_eof && conn->in_flight == 0));
  }
  if (failed || close_now) {
    close_connection(conn);
    return;
  }
  // Level-triggered EPOLLOUT only while a backlog exists; re-arming with
  // plain EPOLLIN when drained keeps the loop quiet.
  epoll_event ev{};
  ev.events = backlog ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

}  // namespace ascend::serve
