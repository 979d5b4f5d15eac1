#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace aplus {

namespace {

// Frames a connection may queue while a job is in flight before the
// server declares it hostile and closes it (bounds deferred memory).
constexpr size_t kMaxDeferredFrames = 1024;

// Events one epoll_wait returns. A worker parses all of its connections
// before it runs any job, so identical EXECUTEs that arrived together
// group.
constexpr int kMaxEvents = 16;

// Canonical byte encoding of one bound parameter value, for batch-group
// keys: identical key bytes == identical binds.
void AppendValueKey(const Value& value, std::string* key) {
  key->push_back(static_cast<char>(value.type()));
  switch (value.type()) {
    case ValueType::kDouble: {
      double d = value.AsDouble();
      key->append(reinterpret_cast<const char*>(&d), sizeof(d));
      break;
    }
    case ValueType::kString:
      key->append(value.AsString());
      break;
    default: {
      int64_t i = value.AsInt64();
      key->append(reinterpret_cast<const char*>(&i), sizeof(i));
      break;
    }
  }
}

}  // namespace

ServerOptions ServerOptions::FromEnv() {
  ServerOptions options;
  const char* batch = std::getenv("APLUS_SERVER_BATCH");
  if (batch != nullptr) {
    std::string v(batch);
    options.batching = !(v == "off" || v == "0" || v == "false");
  }
  return options;
}

Server::Server(Database* db, const ServerOptions& options) : db_(db), options_(options) {}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "bind port " + std::to_string(options_.port) + ": " + std::strerror(errno);
    CloseFds();
    return false;
  }
  if (listen(listen_fd_, options_.listen_backlog) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    CloseFds();
    return false;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  stop_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  handoff_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  idle_epfd_ = epoll_create1(EPOLL_CLOEXEC);
  loop_epfd_ = epoll_create1(EPOLL_CLOEXEC);
  // Level-triggered and never read: once Stop() writes it, every
  // epoll_wait on either set returns it.
  epoll_event stop{};
  stop.events = EPOLLIN;
  stop.data.ptr = nullptr;
  epoll_event handoff{};
  handoff.events = EPOLLIN;
  handoff.data.ptr = &handoffs_;
  epoll_event listener{};
  listener.events = EPOLLIN;
  listener.data.ptr = &listen_fd_;
  if (stop_fd_ < 0 || handoff_fd_ < 0 || idle_epfd_ < 0 || loop_epfd_ < 0 ||
      epoll_ctl(idle_epfd_, EPOLL_CTL_ADD, stop_fd_, &stop) != 0 ||
      epoll_ctl(idle_epfd_, EPOLL_CTL_ADD, handoff_fd_, &handoff) != 0 ||
      epoll_ctl(loop_epfd_, EPOLL_CTL_ADD, stop_fd_, &stop) != 0 ||
      epoll_ctl(loop_epfd_, EPOLL_CTL_ADD, listen_fd_, &listener) != 0) {
    *error = std::string("epoll: ") + std::strerror(errno);
    CloseFds();
    return false;
  }
  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  loop_ = std::thread([this] { LoopThread(); });
  for (int i = 0; i < std::max(1, options_.num_workers); ++i) {
    workers_.emplace_back([this] { WorkerThread(); });
  }
  return true;
}

void Server::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  uint64_t one = 1;
  ssize_t rc = write(stop_fd_, &one, sizeof(one));
  (void)rc;
  if (loop_.joinable()) loop_.join();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Every thread is gone: close and free what is left.
  ReapRetired();
  for (Connection* conn : conns_) {
    if (conn->fd >= 0) Retire(conn);
    delete conn;
  }
  conns_.clear();
  CloseFds();
}

void Server::CloseFds() {
  for (int* fd : {&listen_fd_, &stop_fd_, &handoff_fd_, &idle_epfd_, &loop_epfd_}) {
    if (*fd >= 0) close(*fd);
    *fd = -1;
  }
}

void Server::LoopThread() {
  epoll_event events[kMaxEvents];
  while (true) {
    // Between two waits no event names a retired connection: it left
    // the loop set before it was retired.
    ReapRetired();
    // The timeout only bounds how long retired connections wait to be
    // freed.
    int n = epoll_wait(loop_epfd_, events, kMaxEvents, 100);
    if (n < 0 && errno != EINTR) return;
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == nullptr) {
        // Stop(): drain in-flight executes promptly. A worker that
        // starts one after this sweep cancels it itself (RunExecuteGroup).
        for (Connection* conn : conns_) CancelInflight(conn);
        return;
      }
      if (tag == &listen_fd_) {
        AcceptNew();
      } else {
        ServiceLoopEvent(static_cast<Connection*>(tag));
      }
    }
  }
}

void Server::AcceptNew() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: back to epoll
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection* conn = new Connection();
    conn->fd = fd;
    conns_.insert(conn);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.ptr = conn;
    epoll_ctl(idle_epfd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void Server::ServiceLoopEvent(Connection* conn) {
  bool retired = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    // The event may predate a move by the connection's owner.
    if (conn->fd < 0 || conn->loop_events == 0) return;
    if (conn->busy) {
      if (!ReadInput(conn)) conn->dead = true;
      ParseFrames(conn);  // busy: acts on CANCEL, defers the rest
      // Nothing more to read: the job's worker settles the rest.
      if (conn->dead || conn->closing) Watch(conn, 0);
    } else {
      retired = Settle(conn, nullptr);  // draining a slow reader
    }
  }
  if (retired) PushRetired(conn);
}

void Server::CancelInflight(Connection* conn) {
  // Under mu: the statement holding the query cannot be closed meanwhile.
  std::lock_guard<std::mutex> lock(conn->mu);
  if (!conn->busy) return;  // nothing in flight
  PreparedQuery* q = conn->inflight.load();
  if (q != nullptr) q->Cancel();
}

void Server::WorkerThread() {
  epoll_event events[kMaxEvents];
  std::vector<Connection*> todo;
  while (true) {
    int n = epoll_wait(idle_epfd_, events, kMaxEvents, -1);
    if (n < 0 && errno != EINTR) return;
    bool stop = false;
    bool handoff = false;
    // Parse every connection this wait returned before running any job,
    // so identical EXECUTEs that arrived together group.
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == nullptr) {
        stop = true;
      } else if (tag == &handoffs_) {
        handoff = true;  // taken below
      } else {
        Connection* conn = static_cast<Connection*>(tag);
        bool retired = false;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          if (!ReadInput(conn)) {
            conn->dead = true;
          } else if (!stopping_.load(std::memory_order_acquire)) {
            ParseFrames(conn);
          }
          retired = Settle(conn, &todo);
        }
        if (retired) PushRetired(conn);
      }
    }
    // Then every handed-off job still waiting, before sleeping again (or
    // exiting: each parsed job gets its answer, cancelled once stopping).
    do {
      RunJobs(&todo);
    } while (PopHandoff(&todo, std::exchange(handoff, false)));
    if (stop) return;
  }
}

bool Server::ReadInput(Connection* conn) {
  while (true) {
    uint8_t buf[64 * 1024];
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.insert(conn->in.end(), buf, buf + n);
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);  // else EOF or hard error
  }
}

void Server::ParseFrames(Connection* conn) {
  while (!conn->closing) {
    wire::FrameView view;
    size_t consumed = 0;
    std::string error;
    const uint8_t* start = conn->in.data() + conn->in_start;
    if (!wire::ExtractFrame(start, conn->in.size() - conn->in_start, &consumed, &view, &error)) {
      if (!error.empty()) {
        SendError(conn, wire::WireStatus::kProtocolError, error);
        conn->closing = true;
      }
      break;  // incomplete: wait for more bytes
    }
    conn->in_start += consumed;
    if (!conn->busy) {
      if (!HandleFrame(conn, view)) conn->closing = true;
    } else if (view.type == wire::FrameType::kCancel) {
      // One job in flight per connection: CANCEL goes out-of-band,
      // everything else replays in order once the job ends. With no query
      // running, cancelling the statement's query would hit its next
      // execute instead, so the job is marked.
      PreparedQuery* q = conn->inflight.load();
      if (q != nullptr) {
        q->Cancel();
      } else {
        conn->job.cancelled = true;
      }
    } else if (conn->deferred.size() >= kMaxDeferredFrames) {
      SendError(conn, wire::WireStatus::kProtocolError, "too many frames queued mid-request");
      conn->closing = true;
    } else {
      conn->deferred.emplace_back(start, start + consumed);
    }
  }
  if (conn->in_start == conn->in.size()) {
    conn->in.clear();
    conn->in_start = 0;
  } else if (conn->in_start > 64 * 1024) {
    conn->in.erase(conn->in.begin(), conn->in.begin() + static_cast<ptrdiff_t>(conn->in_start));
    conn->in_start = 0;
  }
}

bool Server::HandleFrame(Connection* conn, const wire::FrameView& frame) {
  if (!conn->hello_done && frame.type != wire::FrameType::kHello) {
    SendError(conn, wire::WireStatus::kProtocolError, "expected HELLO");
    return false;
  }
  switch (frame.type) {
    case wire::FrameType::kHello:
      HandleHello(conn, frame);
      return !conn->closing;
    case wire::FrameType::kPrepare:
      DispatchPrepare(conn, frame);
      return true;
    case wire::FrameType::kExecute:
      DispatchExecute(conn, frame);
      return true;
    case wire::FrameType::kFetch:
      HandleFetch(conn, frame);
      return true;
    case wire::FrameType::kCancel:
      return true;  // nothing in flight: a job's CANCEL never gets here
    case wire::FrameType::kClose:
      HandleCloseStmt(conn, frame);
      return true;
    case wire::FrameType::kStats:
      HandleStats(conn);
      return true;
    default:
      SendError(conn, wire::WireStatus::kProtocolError,
                "unexpected frame type " + std::to_string(static_cast<int>(frame.type)));
      return false;
  }
}

void Server::HandleHello(Connection* conn, const wire::FrameView& frame) {
  wire::FrameReader r(frame.payload, frame.len);
  uint32_t version = 0;
  if (!r.GetU32(&version) || r.remaining() != 0) {
    SendError(conn, wire::WireStatus::kProtocolError, "malformed HELLO");
    conn->closing = true;
    return;
  }
  if (version != wire::kProtocolVersion) {
    SendError(conn, wire::WireStatus::kProtocolError,
              "unsupported protocol version " + std::to_string(version));
    conn->closing = true;
    return;
  }
  conn->hello_done = true;
  wire::FrameWriter w(&conn->out);
  w.BeginFrame(wire::FrameType::kHelloOk);
  w.PutU32(wire::kProtocolVersion);
  w.PutU32(options_.batching ? 1u : 0u);
  w.EndFrame();
}

void Server::DispatchPrepare(Connection* conn, const wire::FrameView& frame) {
  wire::FrameReader r(frame.payload, frame.len);
  Job& job = conn->job;
  if (!r.GetStr32(&job.text) || r.remaining() != 0) {
    SendError(conn, wire::WireStatus::kProtocolError, "malformed PREPARE");
    conn->closing = true;
    return;
  }
  job.type = wire::FrameType::kPrepare;
  job.stmt_id = conn->next_stmt_id++;
  job.batch_key.clear();
  job.follower = false;
  job.cancelled = false;
  conn->stmts[job.stmt_id] = std::make_unique<Statement>();
  conn->busy = true;
}

void Server::DispatchExecute(Connection* conn, const wire::FrameView& frame) {
  wire::FrameReader r(frame.payload, frame.len);
  Job& job = conn->job;
  uint32_t stmt_id = 0;
  uint32_t deadline_ms = 0;
  uint32_t num_params = 0;
  bool ok = r.GetU32(&stmt_id) && r.GetU32(&deadline_ms) && r.GetU64(&job.max_rows) &&
            r.GetU32(&num_params);
  job.params.clear();
  for (uint32_t i = 0; ok && i < num_params; ++i) {
    std::string name;
    uint8_t tag = 0;
    ok = r.GetStr16(&name) && r.GetU8(&tag);
    if (!ok) break;
    Value value;
    switch (static_cast<wire::ParamTag>(tag)) {
      case wire::ParamTag::kInt64: {
        int64_t v = 0;
        ok = r.GetI64(&v);
        value = Value::Int64(v);
        break;
      }
      case wire::ParamTag::kDouble: {
        double v = 0;
        ok = r.GetF64(&v);
        value = Value::Double(v);
        break;
      }
      case wire::ParamTag::kString: {
        std::string v;
        ok = r.GetStr32(&v);
        value = Value::String(std::move(v));
        break;
      }
      case wire::ParamTag::kBool: {
        uint8_t v = 0;
        ok = r.GetU8(&v);
        value = Value::Bool(v != 0);
        break;
      }
      default:
        ok = false;
        break;
    }
    if (ok) job.params.emplace_back(std::move(name), std::move(value));
  }
  if (!ok || r.remaining() != 0) {
    SendError(conn, wire::WireStatus::kProtocolError, "malformed EXECUTE");
    conn->closing = true;
    return;
  }
  auto it = conn->stmts.find(stmt_id);
  if (it == conn->stmts.end()) {
    SendError(conn, wire::WireStatus::kProtocolError,
              "unknown statement " + std::to_string(stmt_id));
    return;
  }
  job.type = wire::FrameType::kExecute;
  job.stmt_id = stmt_id;
  job.deadline_millis =
      deadline_ms > 0 ? static_cast<int64_t>(deadline_ms) : options_.default_deadline_millis;
  job.batch_key.clear();
  job.follower = false;
  job.cancelled = false;
  conn->busy = true;

  const Statement* stmt = it->second.get();
  if (!options_.batching || !stmt->lease.valid()) return;
  std::string key = stmt->lease.get()->normalized_text();
  key.push_back('\x1f');
  key.append(reinterpret_cast<const char*>(&job.deadline_millis), sizeof(job.deadline_millis));
  key.append(reinterpret_cast<const char*>(&job.max_rows), sizeof(job.max_rows));
  for (const auto& param : job.params) {
    key.push_back('\x1e');
    key.append(param.first);
    key.push_back('=');
    AppendValueKey(param.second, &key);
  }
  std::lock_guard<std::mutex> lock(batch_mu_);
  auto pending = batch_pending_.find(key);
  if (pending != batch_pending_.end()) {
    // An identical request is parsed but its leader has not started:
    // ride along. The leader answers for this connection too.
    pending->second.push_back(conn);
    job.follower = true;
    return;
  }
  batch_pending_.emplace(key, std::vector<Connection*>());
  job.batch_key = std::move(key);
}

void Server::RunJobs(std::vector<Connection*>* todo) {
  // One job at a time: the rest are handed off, to an idle worker or to
  // this one's next wait, so no job waits behind an unrelated slow one
  // while another worker sleeps.
  while (!todo->empty()) {
    Connection* conn = todo->front();
    if (todo->size() > 1) {
      {
        std::lock_guard<std::mutex> lock(handoff_mu_);
        handoffs_.insert(handoffs_.end(), todo->begin() + 1, todo->end());
      }
      uint64_t one = 1;
      ssize_t rc = write(handoff_fd_, &one, sizeof(one));
      (void)rc;
    }
    todo->clear();
    if (conn->job.type == wire::FrameType::kPrepare) {
      RunPrepare(conn, todo);
    } else {
      RunExecuteGroup(conn, todo);
    }
  }
}

bool Server::PopHandoff(std::vector<Connection*>* todo, bool woken) {
  std::lock_guard<std::mutex> lock(handoff_mu_);
  if (handoffs_.empty() && !woken) return false;
  if (!handoffs_.empty()) {
    todo->push_back(handoffs_.front());
    handoffs_.pop_front();
  }
  // handoff_fd_ stays readable (level-triggered: it wakes one worker
  // after another) exactly while jobs wait.
  if (handoffs_.empty()) {
    uint64_t count = 0;
    ssize_t rc = read(handoff_fd_, &count, sizeof(count));
    (void)rc;
  }
  return !todo->empty();
}

void Server::RunPrepare(Connection* conn, std::vector<Connection*>* todo) {
  PlanCache::Lease lease = db_->plan_cache().Acquire(conn->job.text, {});
  std::unique_lock<std::mutex> lock(conn->mu);
  const uint32_t stmt_id = conn->job.stmt_id;
  PreparedQuery* q = lease.get();
  if (!q->ok()) {
    wire::AppendErrorFrame(wire::ToWire(q->status()), q->error(), &conn->out);
    conn->stmts.erase(stmt_id);
  } else {
    wire::FrameWriter w(&conn->out);
    w.BeginFrame(wire::FrameType::kPrepared);
    w.PutU32(stmt_id);
    w.PutU32(static_cast<uint32_t>(q->num_params()));
    for (size_t i = 0; i < q->num_params(); ++i) w.PutStr16(q->param_name(i));
    w.PutU32(static_cast<uint32_t>(q->columns().size()));
    for (const ProjectColumn& col : q->columns()) {
      w.PutU8(static_cast<uint8_t>(col.type));
      w.PutStr16(col.name);
    }
    w.EndFrame();
    conn->stmts.at(stmt_id)->lease = std::move(lease);
  }
  EndJob(conn, &lock, todo);
}

void Server::RunExecuteGroup(Connection* leader, std::vector<Connection*>* todo) {
  const Job& job = leader->job;
  std::vector<Connection*> followers;
  if (!job.batch_key.empty()) {
    std::lock_guard<std::mutex> lock(batch_mu_);
    auto it = batch_pending_.find(job.batch_key);
    if (it != batch_pending_.end()) {
      followers = std::move(it->second);
      batch_pending_.erase(it);
    }
  }

  // The owner reads its own statements without mu: only it changes them.
  PreparedQuery* q = leader->stmts.at(job.stmt_id)->lease.get();
  QueryOutcome outcome;
  bool bound = true;
  for (const auto& param : job.params) {
    if (!q->Bind(param.first, param.second)) {
      outcome.status = QueryOutcome::Status::kBindError;
      outcome.error = q->bind_error();
      bound = false;
      break;
    }
  }
  auto spool = std::make_shared<Spool>();
  bool run = bound;
  if (bound) {
    // A CANCEL parsed before this point found no query to stop and
    // marked the job instead: skip the run unless followers need it.
    std::lock_guard<std::mutex> lock(leader->mu);
    run = !job.cancelled || !followers.empty();
    if (!job.cancelled) leader->inflight.store(q);
  }
  if (run) {
    q->set_deadline_millis(job.deadline_millis);
    // Pairs with Stop(): either its sweep sees this query or this sees
    // stopping_.
    if (stopping_.load()) q->Cancel();

    struct Sink : RowConsumer {
      Spool* spool = nullptr;
      std::mutex mu;
      void OnBatch(const RowBatch& batch) override {
        std::lock_guard<std::mutex> lock(mu);
        SpoolChunk chunk;
        chunk.offset = spool->bytes.size();
        chunk.rows = batch.num_rows();
        wire::AppendRowsFrame(batch, &spool->bytes);
        chunk.len = spool->bytes.size() - chunk.offset;
        spool->chunks.push_back(chunk);
      }
    } sink;
    sink.spool = spool.get();

    // A lone request runs serial (cross-connection concurrency is the
    // throughput lever); a sealed batch group amortizes one
    // morsel-parallel pass across all its members.
    const int num_threads =
        followers.empty() ? 1 : static_cast<int>(std::min<size_t>(followers.size() + 1, 4));
    outcome = q->Execute(&sink, num_threads);
    leader->inflight.store(nullptr);
    spool->count = outcome.count;
    spool->seconds = outcome.seconds;
  }

  queries_.fetch_add(1 + followers.size(), std::memory_order_relaxed);
  if (!followers.empty()) {
    batch_saved_.fetch_add(followers.size(), std::memory_order_relaxed);
  }
  std::shared_ptr<const Spool> result;
  if (outcome.ok()) result = std::move(spool);
  Answer(leader, outcome, result, todo);
  for (Connection* follower : followers) Answer(follower, outcome, result, todo);
}

void Server::Answer(Connection* conn, const QueryOutcome& outcome,
                    const std::shared_ptr<const Spool>& result, std::vector<Connection*>* todo) {
  std::unique_lock<std::mutex> lock(conn->mu);
  // A busy connection's statements stay put: a CLOSE waits its turn.
  Statement* stmt = conn->stmts.at(conn->job.stmt_id).get();
  const bool cancelled = conn->job.cancelled;  // this member alone
  stmt->result = cancelled ? nullptr : result;
  stmt->next_chunk = 0;
  if (cancelled) {
    wire::AppendErrorFrame(wire::WireStatus::kCancelled, "query cancelled", &conn->out);
  } else if (outcome.ok()) {
    AppendResult(stmt, conn->job.max_rows, &conn->out);
  } else {
    wire::AppendErrorFrame(wire::ToWire(outcome.status), outcome.error, &conn->out);
  }
  EndJob(conn, &lock, todo);
}

void Server::AppendResult(Statement* stmt, uint64_t max_rows, std::vector<uint8_t>* out) {
  const Spool* spool = stmt->result.get();
  const size_t num_chunks = spool != nullptr ? spool->chunks.size() : 0;
  uint64_t delivered = 0;
  while (stmt->next_chunk < num_chunks && (max_rows == 0 || delivered < max_rows)) {
    const SpoolChunk& chunk = spool->chunks[stmt->next_chunk];
    out->insert(out->end(), spool->bytes.begin() + static_cast<ptrdiff_t>(chunk.offset),
                spool->bytes.begin() + static_cast<ptrdiff_t>(chunk.offset + chunk.len));
    delivered += chunk.rows;
    ++stmt->next_chunk;
  }
  const bool more = stmt->next_chunk < num_chunks;
  wire::AppendDoneFrame(more, spool != nullptr ? spool->count : 0, delivered,
                        spool != nullptr ? spool->seconds : 0.0, out);
}

void Server::EndJob(Connection* conn, std::unique_lock<std::mutex>* lock,
                    std::vector<Connection*>* todo) {
  conn->busy = false;
  FlushOut(conn);  // the answer goes out before any bookkeeping
  // Replay frames that arrived mid-job, in order, until another job
  // starts (busy again) or the connection is closing.
  while (!conn->busy && !conn->closing && !conn->dead && !conn->deferred.empty() &&
         !stopping_.load(std::memory_order_acquire)) {
    std::vector<uint8_t> bytes = std::move(conn->deferred.front());
    conn->deferred.pop_front();
    wire::FrameView view;
    view.type = static_cast<wire::FrameType>(bytes[4]);
    view.payload = bytes.data() + wire::kFrameHeaderBytes;
    view.len = bytes.size() - wire::kFrameHeaderBytes;
    if (!HandleFrame(conn, view)) conn->closing = true;
  }
  const bool retired = Settle(conn, todo);
  lock->unlock();
  if (retired) PushRetired(conn);
}

void Server::HandleFetch(Connection* conn, const wire::FrameView& frame) {
  wire::FrameReader r(frame.payload, frame.len);
  uint32_t stmt_id = 0;
  uint64_t max_rows = 0;
  if (!r.GetU32(&stmt_id) || !r.GetU64(&max_rows) || r.remaining() != 0) {
    SendError(conn, wire::WireStatus::kProtocolError, "malformed FETCH");
    conn->closing = true;
    return;
  }
  auto it = conn->stmts.find(stmt_id);
  if (it == conn->stmts.end()) {
    SendError(conn, wire::WireStatus::kProtocolError,
              "unknown statement " + std::to_string(stmt_id));
    return;
  }
  // Pure spool slicing: no execution, so it runs inline.
  AppendResult(it->second.get(), max_rows, &conn->out);
}

void Server::HandleCloseStmt(Connection* conn, const wire::FrameView& frame) {
  wire::FrameReader r(frame.payload, frame.len);
  uint32_t stmt_id = 0;
  if (!r.GetU32(&stmt_id) || r.remaining() != 0) {
    SendError(conn, wire::WireStatus::kProtocolError, "malformed CLOSE");
    conn->closing = true;
    return;
  }
  conn->stmts.erase(stmt_id);
  wire::FrameWriter w(&conn->out);
  w.BeginFrame(wire::FrameType::kClosed);
  w.PutU32(stmt_id);
  w.EndFrame();
}

void Server::HandleStats(Connection* conn) {
  wire::FrameWriter w(&conn->out);
  w.BeginFrame(wire::FrameType::kStatsResult);
  const PlanCache& cache = db_->plan_cache();
  w.PutU64(cache.hits());
  w.PutU64(cache.misses());
  w.PutU64(cache.size());
  w.PutU64(queries());
  w.PutU64(batch_saved());
  w.EndFrame();
}

bool Server::Settle(Connection* conn, std::vector<Connection*>* todo) {
  FlushOut(conn);
  if (conn->busy) {
    // A job started: watch for CANCEL and pipelined frames while it runs.
    if (!conn->dead && !conn->closing) Watch(conn, EPOLLIN);
    if (!conn->job.follower) todo->push_back(conn);
    return false;
  }
  Watch(conn, 0);
  const bool drained = conn->out_start >= conn->out.size();
  if (conn->dead || stopping_.load(std::memory_order_acquire) || (conn->closing && drained)) {
    // While stopping, pending output is best-effort: a stalled peer does
    // not stall shutdown.
    Retire(conn);
    return true;
  }
  if (!drained) {
    Watch(conn, EPOLLOUT);  // slow reader: the loop thread drains it
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.ptr = conn;
  epoll_ctl(idle_epfd_, EPOLL_CTL_MOD, conn->fd, &ev);
  return false;
}

void Server::Watch(Connection* conn, uint32_t events) {
  if (conn->loop_events == events) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = conn;
  const int op = events == 0              ? EPOLL_CTL_DEL
                 : conn->loop_events == 0 ? EPOLL_CTL_ADD
                                          : EPOLL_CTL_MOD;
  epoll_ctl(loop_epfd_, op, conn->fd, &ev);
  conn->loop_events = events;
}

void Server::Retire(Connection* conn) {
  Watch(conn, 0);
  conn->stmts.clear();  // returns the leases
  close(conn->fd);
  conn->fd = -1;
}

void Server::PushRetired(Connection* conn) {
  // Only after the retiring thread released conn->mu: the loop thread
  // may free the connection as soon as it is listed.
  std::lock_guard<std::mutex> lock(retired_mu_);
  retired_.push_back(conn);
}

void Server::ReapRetired() {
  std::vector<Connection*> retired;
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    retired.swap(retired_);
  }
  for (Connection* conn : retired) {
    conns_.erase(conn);
    delete conn;
  }
}

void Server::SendError(Connection* conn, wire::WireStatus status, const std::string& message) {
  wire::AppendErrorFrame(status, message, &conn->out);
}

void Server::FlushOut(Connection* conn) {
  while (!conn->dead && conn->out_start < conn->out.size()) {
    ssize_t n = send(conn->fd, conn->out.data() + conn->out_start,
                     conn->out.size() - conn->out_start, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_start += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;  // EPOLLOUT resumes
    conn->dead = true;
    return;
  }
  if (conn->out_start >= conn->out.size()) {
    conn->out.clear();
    conn->out_start = 0;
  }
}

}  // namespace aplus
