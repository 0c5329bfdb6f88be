/**
 * @file
 * The ROG engine's worker and server roles bound onto a session
 * Fabric — the same training semantics as the in-process engine
 * (engine.hpp), factored into two message-driven nodes so they can
 * run in separate processes over real sockets *or* co-resident in one
 * discrete-event simulation, byte-for-byte the same logic.
 *
 * ServerNode: parameter-server half. Admits workers through a
 * SessionTable (epoch + resume-token gated handshake), accumulates
 * each push's decoded units into the one-copy-per-worker outbox
 * (gradient conservation), gates pulls on the RSP staleness bound,
 * applies every contribution to a canonical model replica (the resync
 * source for rejoining workers), drives the phi-accrual
 * MembershipTracker from heartbeats, and checkpoints its volatile
 * state crash-consistently. A worker that vanishes mid-push is
 * suspected, evicted, and — when its restarted process says Hello —
 * re-admitted through the same suspect→dead→rejoining lifecycle a
 * simulated crash takes; at the server's state level the two are
 * indistinguishable.
 *
 * WorkerNode: training half. Handshakes (with capped-exponential
 * retry), computes real minibatch gradients, encodes every
 * synchronization unit through its one-bit codec into one push message
 * per iteration, requests a pull once that push is acknowledged,
 * applies the averaged gradients, and writes its resume record (model
 * + resume token, one durable file) after every applied pull so its
 * next incarnation can resume instead of resyncing.
 *
 * All I/O goes through the Fabric; neither class names a socket, a
 * simulation, or a backend.
 */
#ifndef ROG_CORE_NODE_ENGINE_HPP
#define ROG_CORE_NODE_ENGINE_HPP

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "core/failure_detector.hpp"
#include "core/flat_model.hpp"
#include "core/node_event.hpp"
#include "core/row_partition.hpp"
#include "core/server_shard.hpp"
#include "core/workload.hpp"
#include "net/session/fabric.hpp"
#include "net/session/session.hpp"
#include "net/session/wire.hpp"
#include "nn/optimizer.hpp"

namespace rog {
namespace core {

/** One run-log line (a NodeEvent rendered by toLine). */
using NodeLogger = std::function<void(const std::string &)>;

/** Knobs shared by both roles of one training run. */
struct NodeTrainConfig
{
    std::int64_t max_iters = 12;
    std::int64_t staleness = 3; //!< RSP gate threshold.
    Granularity granularity = Granularity::Row;
    std::string codec = "onebit";

    std::uint64_t epoch = 1;      //!< run epoch (handshake fence).
    std::uint64_t session_salt = 7; //!< resume-token derivation seed.

    FailureDetectorConfig detector;

    /** Server -> worker send deadlines (a dead worker must not wedge
     *  the server). Relative seconds. */
    double welcome_timeout_s = 5.0;
    double pull_timeout_s = 10.0;

    /** Worker handshake retry: capped exponential. */
    double hello_retry_base_s = 0.2;
    double hello_retry_max_s = 2.0;
    std::size_t hello_max_tries = 40;

    /**
     * Worker-side server failure detection: the worker watches the
     * gaps between server responses (Welcome / Reject / PullData)
     * with the same phi-accrual shape the server applies to worker
     * heartbeats, plus a hard silence bound. While mid-iteration
     * (Pushing / PullWait), a suspected server triggers a resync:
     * park the in-flight push, reconnect, re-run Hello, adopt the
     * new epoch, and re-send what the new server has not applied.
     */
    double server_check_interval_s = 0.25;
    double server_silence_bound_s = 6.0; //!< hard cap, seconds.
    double server_phi_suspect = 6.0;     //!< phi threshold.
    std::size_t server_phi_min_samples = 3;

    /** Worker heartbeat send deadline = 2 * interval (best effort). */

    /** Server checkpoint cadence, in applied units (0 = off); checked
     *  once per push message. */
    std::size_t checkpoint_every = 16;
    std::string checkpoint_path; //!< server "ROGS" file ("" = off).

    /** Worker-side local checkpoint directory ("" = no resume). */
    std::string worker_state_dir;
};

/** What a (possibly restarted) worker process brings to the table:
 *  the resume claim and its model, persisted as one record. */
struct WorkerResumeState
{
    std::uint32_t incarnation = 0;
    std::uint64_t resume_token = 0;
    std::int64_t last_done_iter = 0;
    std::vector<std::uint8_t> model; //!< ROGM bytes ("" = none).
};

/** `<dir>/worker<w>.rogw`, the worker's resume record. */
std::string workerStatePath(const std::string &dir, std::size_t worker);

/** Replace @p path with @p state as one durable "ROGW" record
 *  (RecordFormat). @throws std::runtime_error on I/O failure. */
void writeWorkerState(const std::string &path,
                      const WorkerResumeState &state);

/** Strict reader of writeWorkerState's record.
 *  @throws std::runtime_error if missing, torn, or corrupt. */
WorkerResumeState readWorkerState(const std::string &path);

/** Parameter-server node. */
class ServerNode
{
  public:
    ServerNode(net::session::Fabric &fabric, Workload &workload,
               const NodeTrainConfig &cfg, NodeLogger log = {});
    ~ServerNode();

    ServerNode(const ServerNode &) = delete;
    ServerNode &operator=(const ServerNode &) = delete;

    /** Register the message handler and arm the membership timer. */
    void start();

    /** Every worker said Bye (the run is over). */
    bool done() const { return done_; }

    /** Evaluate the canonical model into the workload metric. */
    double evaluateModel();

    nn::Model &model() { return *model_; }

    /** Write the crash-consistent server checkpoint now. */
    void checkpointNow();

    std::int64_t minWorkerIteration() const
    {
        return server_.minWorkerIteration();
    }

    const MembershipTracker &membership() const { return tracker_; }
    const net::session::SessionTable &sessions() const { return table_; }

    /** The run epoch in force (bumped past the checkpoint's after a
     *  crash-recovery construction). */
    std::uint64_t epoch() const { return table_.epoch(); }

    /** True when construction restored a ROGS checkpoint. */
    bool recovered() const { return recovered_; }

    /** Test/harness hook: fired after every push message that applied
     *  a unit, with the push's iteration (e.g. to schedule a mid-run
     *  server crash). */
    void setApplyHook(std::function<void(std::int64_t)> hook)
    {
        apply_hook_ = std::move(hook);
    }

    /** Units applied / units recorded as duplicates / stale-session
     *  messages dropped. */
    std::size_t appliedPushes() const { return applied_pushes_; }
    std::size_t duplicatePushes() const { return duplicate_pushes_; }
    std::size_t staleDrops() const { return stale_drops_; }

  private:
    struct WorkerPeer
    {
        bool connected = false;
        std::string host;
        std::uint16_t port = 0;
        std::int64_t pending_pull = -1; //!< queued PullReq iter.
        bool bye = false;
    };

    void onMessage(const net::session::MessageKey &key,
                   std::vector<std::uint8_t> &&bytes);
    void onHello(std::vector<std::uint8_t> &&bytes);
    void onPush(const net::session::MessageKey &key,
                std::vector<std::uint8_t> &&bytes);
    void onPullReq(const net::session::MessageKey &key,
                   std::vector<std::uint8_t> &&bytes);
    void onHeartbeat(const net::session::MessageKey &key,
                     std::vector<std::uint8_t> &&bytes);
    void onBye(const net::session::MessageKey &key,
               std::vector<std::uint8_t> &&bytes);
    void evaluateMembership();
    void answerReadyPulls();
    bool gateOpen(std::int64_t iter) const;
    void answerPull(std::size_t w, std::int64_t iter);
    void evictWorker(std::size_t w);
    /** Try to restore a ROGS checkpoint; false = start fresh. */
    bool restoreFromCheckpoint();
    void maybeCheckpoint();
    void checkDone();
    /** Hand @p ev to the log sink, rendered, if one is attached. */
    void emit(const NodeEvent &ev);
    /** True when @p key carries worker @p w's live session scope. */
    bool sessionCurrent(std::size_t w, std::int64_t version);

    net::session::Fabric &fabric_;
    Workload &workload_;
    NodeTrainConfig cfg_;
    NodeLogger log_;
    /** emit()'s rendering buffer, reused so a line costs no
     *  allocation; valid only during the log_ call. */
    std::string line_;

    std::unique_ptr<nn::Model> model_; //!< canonical replica.
    std::unique_ptr<FlatModel> flat_;
    std::unique_ptr<RowPartition> partition_;
    std::unique_ptr<nn::SgdMomentum> opt_;

    net::session::SessionTable table_;
    /** Outboxes, version matrix and MTA tracker: one shard, so the
     *  checkpoint is a single ROGS file. */
    ShardedServer server_;
    MembershipTracker tracker_;

    std::vector<WorkerPeer> peers_;
    std::vector<float> decoded_; //!< scratch: one unit's values.
    std::vector<float> scaled_;  //!< scratch: decoded / num_workers.
    std::vector<char> seen_;     //!< scratch: units listed in a push.
    /** onPush's records, reused so their unit lists keep capacity. */
    NodeEvent apply_ev_{.kind = NodeEvent::Kind::Apply};
    NodeEvent dup_ev_{.kind = NodeEvent::Kind::DupPush};
    net::session::FabricTimer member_timer_ = 0;
    std::uint32_t ctrl_seq_ = 1; //!< server control-message keys.
    std::size_t applied_pushes_ = 0;
    std::size_t duplicate_pushes_ = 0;
    std::size_t stale_drops_ = 0;
    std::size_t applies_since_ckpt_ = 0;
    bool recovered_ = false;
    std::function<void(std::int64_t)> apply_hook_;
    bool done_ = false;
};

/** Training worker node. */
class WorkerNode
{
  public:
    WorkerNode(net::session::Fabric &fabric, Workload &workload,
               const NodeTrainConfig &cfg, std::size_t worker,
               const WorkerResumeState &resume, NodeLogger log = {});
    ~WorkerNode();

    WorkerNode(const WorkerNode &) = delete;
    WorkerNode &operator=(const WorkerNode &) = delete;

    /** Connect to the server and start the handshake. */
    void start(const std::string &server_host,
               std::uint16_t server_port);

    /** Finished max_iters and sent Bye. */
    bool done() const { return phase_ == Phase::Done; }

    /** Gave up (handshake retries exhausted or fabric failure). */
    bool failed() const { return phase_ == Phase::Failed; }

    bool admitted() const
    {
        return phase_ != Phase::Hello && phase_ != Phase::Failed;
    }

    std::int64_t iter() const { return iter_; }
    net::session::AdmitMode admitMode() const { return admit_mode_; }
    /** Run epoch this worker currently believes in (updated by
     *  Welcome adoption and BadEpoch rejects). */
    std::uint64_t epoch() const { return epoch_; }
    std::uint32_t session() const { return session_; }
    nn::Model &model() { return *model_; }

  private:
    enum class Phase {
        Hello,    //!< (re)handshaking.
        Pushing,  //!< the push of iter_ in flight.
        PullWait, //!< PullReq sent, waiting for PullData.
        Leaving,  //!< Bye in flight.
        Done,
        Failed,
    };

    void onMessage(const net::session::MessageKey &key,
                   std::vector<std::uint8_t> &&bytes);
    void sendHello();
    void armHelloRetry();
    void onWelcome(std::vector<std::uint8_t> &&bytes);
    void onReject(std::vector<std::uint8_t> &&bytes);
    void onPullData(std::vector<std::uint8_t> &&bytes);
    void beginIteration();
    void onPushDelivered();
    void finishRun();
    void armHeartbeat();
    void sendHeartbeat();
    /** Server-response phi accrual: note life, watch for silence. */
    void noteServerAlive();
    void armServerWatch();
    void checkServer();
    /** Re-send the parked push under the new session scope. */
    void repushParked();
    /** Ship parked_ as iter_'s push under the live session. */
    void sendParked();
    void applyUnit(std::uint32_t unit, std::span<const float> values);
    void writeLocalCheckpoint();
    /** Transport trouble: tear down and re-handshake. */
    void resync(const char *why);
    /** Hand @p ev to the log sink, rendered, if one is attached. */
    void emit(const NodeEvent &ev);

    net::session::Fabric &fabric_;
    Workload &workload_;
    NodeTrainConfig cfg_;
    std::size_t worker_ = 0;
    NodeLogger log_;
    /** emit()'s rendering buffer, reused so a line costs no
     *  allocation; valid only during the log_ call. */
    std::string line_;

    std::unique_ptr<nn::Model> model_;
    std::unique_ptr<FlatModel> flat_;
    std::unique_ptr<RowPartition> partition_;
    std::unique_ptr<nn::SgdMomentum> opt_;
    std::unique_ptr<compress::Codec> codec_;
    data::BatchSampler sampler_;

    std::string server_host_;
    std::uint16_t server_port_ = 0;

    Phase phase_ = Phase::Hello;
    std::uint32_t incarnation_ = 0;
    std::uint64_t resume_token_ = 0;
    std::uint64_t epoch_ = 0;
    std::uint64_t hello_nonce_ = 0;
    std::uint32_t hello_seq_ = 1;
    std::size_t hello_tries_ = 0;
    net::session::FabricTimer hello_timer_ = 0;
    net::session::FabricTimer heartbeat_timer_ = 0;

    std::uint32_t session_ = 0;
    net::session::AdmitMode admit_mode_ = net::session::AdmitMode::Fresh;
    std::int64_t iter_ = 0;       //!< iteration in flight (1-based).
    std::int64_t done_iter_ = 0;  //!< last fully applied iteration.
    std::uint32_t hb_seq_ = 1;
    std::vector<float> grad_;    //!< scratch: gathered unit gradient.
    std::vector<float> decoded_; //!< scratch: one unit, coded or pulled.

    /** Consecutive best-effort heartbeat send failures. */
    std::size_t hb_fail_streak_ = 0;

    /** Server-response failure detection (see NodeTrainConfig). */
    net::session::FabricTimer server_watch_timer_ = 0;
    double last_server_msg_ = 0.0; //!< 0 = nothing heard yet.
    double server_gap_ewma_ = 0.0;
    std::size_t server_gap_samples_ = 0;

    /**
     * The in-flight iteration's encoded push message, parked so a
     * server restart mid-push can re-send it under the new session
     * instead of recomputing (the codec residual already advanced —
     * a recompute would not reproduce these bytes). Its capacity is
     * reused from iteration to iteration.
     */
    std::vector<std::uint8_t> parked_;
    std::int64_t parked_iter_ = 0;
};

} // namespace core
} // namespace rog

#endif // ROG_CORE_NODE_ENGINE_HPP
