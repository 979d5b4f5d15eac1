#ifndef APLUS_SERVER_SERVER_H_
#define APLUS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/database.h"
#include "server/protocol.h"
#include "server/shared_plan_cache.h"
#include "storage/value.h"

namespace aplus {

// aplusd server configuration. Env defaults (APLUS_SERVER_BATCH,
// APLUS_QUERY_TIMEOUT_MS) are resolved by ServerOptions::FromEnv so the
// aplusd binary and in-process test servers agree on knob semantics.
struct ServerOptions {
  // TCP port to listen on (loopback + any). 0 binds an ephemeral port —
  // tests read the real one back from Server::port().
  int port = 0;
  // Worker threads. Each reads an idle connection's request, runs it
  // and writes the response itself, so this is also the most requests
  // that execute at once.
  int num_workers = 4;
  // Deadline applied to EXECUTE frames that carry deadline_ms == 0.
  // < 0 defers to APLUS_QUERY_TIMEOUT_MS.
  int64_t default_deadline_millis = -1;
  // Groups concurrent identical EXECUTEs into one morsel-parallel pass
  // (see Server's batching notes). APLUS_SERVER_BATCH=off disables.
  bool batching = true;
  int listen_backlog = 64;

  // Applies APLUS_SERVER_BATCH=on|off on top of the defaults above.
  static ServerOptions FromEnv();
};

// The aplusd front-end: accepts wire-protocol connections
// (server/protocol.h), prepares statements through the cross-session
// SharedPlanCache, and runs each request on the worker thread that read
// it (Leader/Followers), so a request costs one thread wake-up each way.
//
// Threading model:
//   * Two epoll sets. The *idle set* holds every idle connection, armed
//     EPOLLONESHOT; the num_workers worker threads wait on it. The
//     worker that a connection's bytes wake owns it: it reads and
//     parses them, answers HELLO/FETCH/CLOSE/STATS inline, runs PREPARE
//     (parse + optimize on cache miss) or EXECUTE (bind + run +
//     serialize the result spool) itself, writes the response and
//     re-arms the connection. When one wait hands a worker several
//     requests, it runs the first and hands the rest off to idle
//     workers, so no request waits behind an unrelated slow one.
//   * One I/O loop thread waits on the *loop set*: the listener (new
//     connections go to the idle set), connections with a job in
//     flight, and slow readers' pending output. Reading a busy
//     connection is what makes CANCEL land at once
//     (PreparedQuery::Cancel is the one thread-safe entry point); any
//     other frame that arrives mid-job is deferred and replayed in
//     arrival order by the job's worker once the job ends.
//   * Each connection has at most ONE job in flight and one owner at a
//     time: the idle set, a worker, or the loop thread while it drains
//     pending output. Connection::mu guards the state the owner shares
//     with the loop thread while a job runs. Only the loop thread frees
//     a connection, between two epoll_waits, so no thread still holds
//     it (see Retire).
//   * Queries execute with num_threads = 1: server throughput comes
//     from cross-connection concurrency, not per-query parallelism. The
//     one exception is a batch group (below), which amortizes one pass
//     across its members and may go morsel-parallel.
//
// Request batching (APLUS_SERVER_BATCH): a worker parses every
// connection one epoll_wait returned before it runs any job, and
// EXECUTE frames that hit the same shared-cache plan entry with
// byte-identical parameters, deadline and max_rows are grouped while
// their leader has not started; the leader seals the group, executes
// ONCE (num_threads = min(group, 4)), and every member's statement
// shares the leader's result spool, each with its own FETCH cursor.
// Per-connection ordering makes same-connection duplicates impossible,
// so batching only ever merges across connections.
//
// Results stream into a per-statement spool of serialized kRows frames;
// the EXECUTE response carries up to max_rows rows (rounded up to whole
// batches) and sets more=1 when FETCH can page the rest.
class Server {
 public:
  Server(Database* db, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds + listens + spawns the loop and worker threads. Returns false
  // with *error set when the port cannot be bound.
  bool Start(std::string* error);

  // Graceful shutdown: stops accepting, cancels in-flight executes via
  // their ExecTokens, lets their workers answer best-effort, closes
  // every connection. Idempotent.
  void Stop();

  // The bound port (the real one when options.port was 0).
  int port() const { return port_; }

  SharedPlanCache& plan_cache() { return cache_; }
  uint64_t queries() const { return queries_.load(std::memory_order_relaxed); }
  // Executes answered from a batch leader's pass instead of running.
  uint64_t batch_saved() const { return batch_saved_.load(std::memory_order_relaxed); }

 private:
  // One contiguous slice of a result spool: a serialized kRows frame and
  // the row count it carries.
  struct SpoolChunk {
    size_t offset = 0;
    size_t len = 0;
    uint64_t rows = 0;
  };

  // One execution's result, immutable once published and shared by
  // every statement its batch group answered.
  struct Spool {
    std::vector<uint8_t> bytes;  // concatenated kRows frames
    std::vector<SpoolChunk> chunks;
    uint64_t count = 0;
    double seconds = 0.0;
  };

  struct Statement {
    SharedPlanCache::Lease lease;
    std::shared_ptr<const Spool> result;  // null until an EXECUTE succeeds
    size_t next_chunk = 0;                // FETCH cursor into result->chunks
  };

  // The one request in flight on a busy connection.
  struct Job {
    wire::FrameType type = wire::FrameType::kExecute;  // or kPrepare
    uint32_t stmt_id = 0;
    std::string text;             // PREPARE
    int64_t deadline_millis = 0;  // EXECUTE, resolved (0 frame value applied)
    uint64_t max_rows = 0;        // EXECUTE, 0 = all
    std::vector<std::pair<std::string, Value>> params;
    std::string batch_key;  // a group leader's key; empty when not grouped
    bool follower = false;  // answered by another connection's leader
  };

  struct Connection {
    std::mutex mu;  // owner vs. the loop thread while a job runs
    int fd = -1;    // -1 once retired
    std::vector<uint8_t> in;
    size_t in_start = 0;  // parsed prefix of `in`
    std::vector<uint8_t> out;
    size_t out_start = 0;  // written prefix of `out`
    bool hello_done = false;
    bool busy = false;     // job in flight
    bool closing = false;  // drain `out`, then close
    bool dead = false;     // socket failed or peer closed
    uint32_t loop_events = 0;  // what the loop set watches; 0 = not in it
    uint32_t next_stmt_id = 1;
    std::unordered_map<uint32_t, std::unique_ptr<Statement>> stmts;
    Job job;
    // Frames received while busy, replayed in order when the job ends.
    std::deque<std::vector<uint8_t>> deferred;
    // The executing statement's query, for out-of-band CANCEL.
    std::atomic<PreparedQuery*> inflight{nullptr};
  };

  void LoopThread();
  void WorkerThread();
  void AcceptNew();
  void ServiceLoopEvent(Connection* conn);
  void CancelInflight(Connection* conn);

  // Appends what the socket holds to conn->in; false on EOF or error.
  bool ReadInput(Connection* conn);
  // Dispatches complete frames until one starts a job; while the job
  // runs, CANCEL acts at once and every other frame is deferred.
  void ParseFrames(Connection* conn);
  // Dispatches one complete frame. Returns false when the connection
  // must close (protocol violation).
  bool HandleFrame(Connection* conn, const wire::FrameView& frame);
  void HandleHello(Connection* conn, const wire::FrameView& frame);
  void DispatchPrepare(Connection* conn, const wire::FrameView& frame);
  void DispatchExecute(Connection* conn, const wire::FrameView& frame);
  void HandleFetch(Connection* conn, const wire::FrameView& frame);
  void HandleCloseStmt(Connection* conn, const wire::FrameView& frame);
  void HandleStats(Connection* conn);

  // Runs the first job in *todo and hands the rest off; a job's end may
  // replay a deferred frame that starts another, appended to *todo.
  void RunJobs(std::vector<Connection*>* todo);
  // Moves one handed-off job to *todo; false when none was waiting.
  // `woken`: handoff_fd_ woke this worker, so reset it even if empty.
  bool PopHandoff(std::vector<Connection*>* todo, bool woken);
  void RunPrepare(Connection* conn, std::vector<Connection*>* todo);
  void RunExecuteGroup(Connection* leader, std::vector<Connection*>* todo);
  // Publishes an execute's outcome to one member of its group.
  void Answer(Connection* conn, const QueryOutcome& outcome,
              const std::shared_ptr<const Spool>& result, std::vector<Connection*>* todo);
  // Appends the statement's next chunks (up to max_rows rows, 0 = all)
  // and a DONE frame, advancing its FETCH cursor.
  void AppendResult(Statement* stmt, uint64_t max_rows, std::vector<uint8_t>* out);
  // Ends conn's job (mu held by *lock, released on return): sends the
  // response, replays deferred frames, settles the connection.
  void EndJob(Connection* conn, std::unique_lock<std::mutex>* lock,
              std::vector<Connection*>* todo);

  // Owner, mu held: flushes output, then moves the connection on — to
  // *todo and the loop set when a job started, back to the idle set,
  // to the loop set to drain output, or out (true: retired, push it to
  // retired_ once mu is released).
  bool Settle(Connection* conn, std::vector<Connection*>* todo);
  void Watch(Connection* conn, uint32_t events);  // loop-set membership
  void Retire(Connection* conn);                  // mu held: close it
  void PushRetired(Connection* conn);
  void ReapRetired();  // loop thread: free retired connections

  void SendError(Connection* conn, wire::WireStatus status, const std::string& message);
  void FlushOut(Connection* conn);
  void CloseFds();

  Database* db_;
  ServerOptions options_;
  SharedPlanCache cache_;

  int listen_fd_ = -1;
  int stop_fd_ = -1;     // eventfd, readable once Stop() began; in both sets
  int handoff_fd_ = -1;  // eventfd in the idle set, readable while handoffs_ waits
  int idle_epfd_ = -1;  // idle connections (EPOLLONESHOT); workers wait here
  int loop_epfd_ = -1;  // listener, busy and draining connections
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  // Every live connection; touched by the loop thread only (and by
  // Stop once the threads are joined).
  std::unordered_set<Connection*> conns_;
  // Closed by their last owner, freed by the loop thread.
  std::mutex retired_mu_;
  std::vector<Connection*> retired_;

  // Parsed jobs a worker could not start itself (RunJobs).
  std::mutex handoff_mu_;
  std::deque<Connection*> handoffs_;

  // Unsealed batch groups: key -> follower connections.
  std::mutex batch_mu_;
  std::unordered_map<std::string, std::vector<Connection*>> batch_pending_;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> batch_saved_{0};

  std::thread loop_;
  std::vector<std::thread> workers_;
};

}  // namespace aplus

#endif  // APLUS_SERVER_SERVER_H_
