#include "core/node_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/durable_file.hpp"
#include "common/logging.hpp"
#include "core/server_checkpoint.hpp"
#include "net/transport/backend.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"

namespace rog {
namespace core {

using net::session::AdmitMode;
using net::session::Bye;
using net::session::FabricTimer;
using net::session::Heartbeat;
using net::session::Hello;
using net::session::isControlRow;
using net::session::kServerNode;
using net::session::MessageKey;
using net::session::packVersion;
using net::session::PullData;
using net::session::PullReq;
using net::session::Reject;
using net::session::RejectReason;
using net::session::versionScope;
using net::session::versionSeq;
using net::session::Welcome;
using net::session::workerNode;
using net::transport::kNoDeadline;

using K = NodeEvent::Kind;

// --------------------------------------------------------------------
// Worker state record
// --------------------------------------------------------------------

namespace {

/** Token, done iteration, incarnation; the model bytes follow. */
constexpr std::size_t kStateFields = 8 + 8 + 4;
constexpr RecordFormat kStateFormat{"ROGW", 1, 1ull << 30, "worker state"};

} // namespace

std::string
workerStatePath(const std::string &dir, std::size_t worker)
{
    return dir + "/worker" + std::to_string(worker) + ".rogw";
}

void
writeWorkerState(const std::string &path, const WorkerResumeState &state)
{
    std::string payload(kStateFields, '\0');
    std::memcpy(payload.data(), &state.resume_token, 8);
    std::memcpy(payload.data() + 8, &state.last_done_iter, 8);
    std::memcpy(payload.data() + 16, &state.incarnation, 4);
    payload.append(state.model.begin(), state.model.end());
    writeRecordFile(path, kStateFormat, payload);
}

WorkerResumeState
readWorkerState(const std::string &path)
{
    const std::string payload = readRecordFile(path, kStateFormat);
    if (payload.size() < kStateFields)
        ROG_FATAL("worker state: truncated payload");
    WorkerResumeState state;
    std::memcpy(&state.resume_token, payload.data(), 8);
    std::memcpy(&state.last_done_iter, payload.data() + 8, 8);
    std::memcpy(&state.incarnation, payload.data() + 16, 4);
    state.model.assign(payload.begin() + kStateFields, payload.end());
    return state;
}

// --------------------------------------------------------------------
// ServerNode
// --------------------------------------------------------------------

ServerNode::ServerNode(net::session::Fabric &fabric, Workload &workload,
                       const NodeTrainConfig &cfg, NodeLogger log)
    : fabric_(fabric), workload_(workload), cfg_(cfg),
      log_(std::move(log)), model_(workload.buildReplica()),
      flat_(std::make_unique<FlatModel>(*model_)),
      partition_(
          std::make_unique<RowPartition>(*flat_, cfg.granularity)),
      opt_(std::make_unique<nn::SgdMomentum>(
          *model_, workload.optimizerConfig())),
      table_(workload.workers(), cfg.epoch, cfg.session_salt),
      server_(workload.workers(), *partition_, 1),
      tracker_(workload.workers(), cfg.detector),
      peers_(workload.workers())
{
    recovered_ = restoreFromCheckpoint();
}

ServerNode::~ServerNode()
{
    if (member_timer_ != 0)
        fabric_.cancelTimer(member_timer_);
    // Unbind from the fabric: it outlives this node, and a crash
    // twin (destroy + reconstruct against the same fabric) must not
    // deliver into a dead server.
    fabric_.setMessageHandler({});
}

bool
ServerNode::restoreFromCheckpoint()
{
    if (cfg_.checkpoint_path.empty())
        return false;
    try {
        const ServerCheckpoint ckpt =
            readServerCheckpointFile(cfg_.checkpoint_path);
        // Validate everything that can throw *before* mutating any
        // member: a rejected checkpoint must leave a clean fresh
        // start, never a torn session table or half-restored model.
        if (ckpt.sessions.entries.size() != peers_.size())
            throw std::runtime_error(
                "checkpoint session table does not cover this fleet");
        if (ckpt.model.empty())
            throw std::runtime_error("checkpoint carries no model");
        // Parse into a throwaway replica first; only a blob the
        // architecture fully accepts may touch the live model.
        nn::loadModelBytes(ckpt.model, *workload_.buildReplica());
        server_.shard(0).restore(ckpt.versions, ckpt.server,
                                 ckpt.tracker);
        nn::loadModelBytes(ckpt.model, *model_);
        // The epoch bump fences off every pre-crash scope; workers
        // holding the old epoch are rejected with the new one and
        // adopt it on retry.
        table_.restore(ckpt.sessions, ckpt.epoch + 1);
        for (std::size_t w = 0; w < peers_.size(); ++w) {
            const bool done = w < ckpt.worker_done.size() &&
                              ckpt.worker_done[w] != 0;
            peers_[w].bye = done;
            if (done)
                tracker_.deactivate(w);
        }
        // Control keys restart past the checkpoint's high-water mark
        // with a gap covering anything sent after it was cut, so no
        // pre-crash in-flight key is ever minted again.
        ctrl_seq_ = static_cast<std::uint32_t>(ckpt.msg_seq) + 4096;
        return true;
    } catch (const std::exception &e) {
        emit({.kind = K::RecoverFailed, .t = fabric_.now(),
              .why = e.what()});
        return false;
    }
}

void
ServerNode::emit(const NodeEvent &ev)
{
    if (!log_)
        return;
    line_.clear();
    appendLine(ev, line_);
    log_(line_);
}

void
ServerNode::start()
{
    fabric_.setMessageHandler(
        [this](const MessageKey &key, std::vector<std::uint8_t> &&b) {
            onMessage(key, std::move(b));
        });
    member_timer_ = fabric_.after(cfg_.detector.check_interval_s,
                                  [this] { evaluateMembership(); });
    emit({.kind = K::ServerStart, .t = fabric_.now(),
          .epoch = table_.epoch(), .recovered = recovered_});
    if (recovered_) {
        // The restored apply watermark, one row per worker — the
        // invariant checker uses these to prove no push that survived
        // the crash is ever applied twice by the new incarnation.
        for (std::size_t w = 0; log_ && w < peers_.size(); ++w) {
            NodeEvent ev{.kind = K::RecoverW, .t = fabric_.now(), .w = w};
            for (std::size_t u = 0; u < partition_->unitCount(); ++u)
                ev.versions.push_back(server_.version(w, u));
            emit(ev);
        }
        // Re-persist immediately under the bumped epoch: a second
        // crash before the next cadence checkpoint must recover to
        // this epoch, not re-derive it from the pre-crash file.
        checkpointNow();
        checkDone();
    }
}

void
ServerNode::onMessage(const MessageKey &key,
                      std::vector<std::uint8_t> &&bytes)
{
    if (!isControlRow(key.row)) {
        onPush(key, std::move(bytes));
        return;
    }
    switch (key.row) {
    case net::session::kRowHello:
        onHello(std::move(bytes));
        return;
    case net::session::kRowPullReq:
        onPullReq(key, std::move(bytes));
        return;
    case net::session::kRowHeartbeat:
        onHeartbeat(key, std::move(bytes));
        return;
    case net::session::kRowBye:
        onBye(key, std::move(bytes));
        return;
    default:
        return; // not addressed to a server.
    }
}

bool
ServerNode::sessionCurrent(std::size_t w, std::int64_t version)
{
    if (w < peers_.size() && table_.isCurrent(w, versionScope(version)))
        return true;
    ++stale_drops_;
    emit({.kind = K::StaleDrop, .t = fabric_.now(), .w = w,
          .scope = versionScope(version)});
    return false;
}

void
ServerNode::onHello(std::vector<std::uint8_t> &&bytes)
{
    Hello h;
    if (!net::session::parse(bytes, h) || h.worker >= peers_.size())
        return;
    const std::size_t w = h.worker;
    const double now = fabric_.now();
    const net::session::Admission a = table_.onHello(h);

    // A handshake (either way) proves the old return path is stale:
    // (re)connect to the worker's receiver before answering.
    WorkerPeer &peer = peers_[w];
    peer.host = "127.0.0.1";
    peer.port = h.rx_port;
    peer.connected =
        fabric_.connectPeer(workerNode(w), peer.host, peer.port);
    if (!peer.connected) {
        // No return path — the socket toward the worker's receiver
        // could not be made or connected. Answering would hit
        // sendTo on a missing peer; drop the handshake instead. The
        // worker's Hello retry re-triggers admission on a live socket.
        emit({.kind = K::HelloConnectFailed, .t = now, .w = w,
              .port = h.rx_port});
        return;
    }

    if (!a.admitted) {
        Reject rej;
        rej.nonce = h.nonce;
        rej.reason = a.reject;
        rej.server_epoch = table_.epoch();
        emit({.kind = K::Reject, .t = now, .w = w, .reason = a.reject,
              .inc = h.incarnation});
        MessageKey key{static_cast<std::uint16_t>(w),
                       packVersion(0, ctrl_seq_++),
                       net::session::kRowReject, true};
        fabric_.sendTo(workerNode(w), key, net::session::encode(rej),
                       now + cfg_.welcome_timeout_s, {});
        return;
    }

    // Membership lifecycle: a restarted process and a simulated
    // crash/rejoin walk the same transitions.
    if (tracker_.active(w)) {
        switch (tracker_.state(w)) {
        case MemberState::Dead:
            tracker_.markRejoining(w, now);
            tracker_.markRejoined(w, now);
            break;
        case MemberState::Rejoining:
            tracker_.markRejoined(w, now);
            break;
        default:
            tracker_.resetStats(w, now);
            break;
        }
    }

    // Version re-entry: never below anything the worker already
    // pushed, so its next push is fresh by construction.
    std::int64_t start = a.start_iter;
    if (a.mode != AdmitMode::Fresh) {
        start = std::max(start, server_.maxVersionOfWorker(w));
        server_.rejoinWorker(w, start);
    }

    // Rejoin resyncs to the canonical model, which already reflects
    // every averaged gradient the worker missed: drop its pending
    // copies or they would be applied twice. Resume keeps them — that
    // is the whole point of resuming.
    if (a.mode == AdmitMode::Rejoin)
        server_.clearWorker(w);

    peer.pending_pull = -1;
    peer.bye = false;

    Welcome wmsg;
    wmsg.nonce = h.nonce;
    wmsg.session = a.session;
    wmsg.resume_token = a.resume_token;
    wmsg.mode = a.mode;
    wmsg.start_iter = start;
    wmsg.epoch = table_.epoch();
    if (a.mode != AdmitMode::Resume)
        wmsg.model = nn::saveModelBytes(*model_);

    emit({.kind = K::Admit, .t = now, .w = w, .epoch = table_.epoch(),
          .inc = h.incarnation, .mode = a.mode, .session = a.session,
          .start = start, .model_bytes = wmsg.model.size()});

    MessageKey key{static_cast<std::uint16_t>(w),
                   packVersion(0, ctrl_seq_++),
                   net::session::kRowWelcome, true};
    fabric_.sendTo(workerNode(w), key, net::session::encode(wmsg),
                   now + cfg_.welcome_timeout_s, {});
    answerReadyPulls();
}

void
ServerNode::onPush(const MessageKey &key,
                   std::vector<std::uint8_t> &&bytes)
{
    const std::size_t w = key.worker;
    if (w >= peers_.size() || !sessionCurrent(w, key.version))
        return;
    const std::int64_t iter = versionSeq(key.version);
    net::session::Push push;
    if (key.row != net::session::kRowPush ||
        !net::session::parse(bytes, push) || push.iter != iter)
        return;

    // Validate the whole push before applying any of it: a unit out of
    // range, a width mismatch or a unit listed twice drops the message,
    // so a push is never half-applied.
    seen_.assign(partition_->unitCount(), 0);
    for (const net::session::UnitEntry &e : push.units) {
        if (e.unit >= seen_.size() || seen_[e.unit] != 0 ||
            e.size() != partition_->unit(e.unit).width)
            return;
        seen_[e.unit] = 1;
    }

    const float inv =
        1.0f / static_cast<float>(workload_.workers());
    apply_ev_.unit_list.clear();
    dup_ev_.unit_list.clear();
    for (const net::session::UnitEntry &e : push.units) {
        const std::size_t unit = e.unit;
        // Application-level exactly-once: the version matrix is
        // monotone per (worker, unit), so a retransmitted or replayed
        // push (e.g. a restarted worker redoing its last iteration) is
        // recorded, never applied.
        if (iter <= server_.version(w, unit)) {
            ++duplicate_pushes_;
            dup_ev_.unit_list.push_back(unit);
            continue;
        }

        decoded_.resize(e.size());
        e.decode(decoded_);
        server_.accumulate(unit, decoded_);
        server_.noteUpdate(unit, iter);
        server_.updateVersion(w, unit, iter);

        // The canonical model eats the same 1/num share every outbox
        // gets, so a rejoiner resyncing from it owes nothing twice.
        scaled_.resize(decoded_.size());
        for (std::size_t i = 0; i < decoded_.size(); ++i)
            scaled_[i] = decoded_[i] * inv;
        applyRowChunks(*opt_, partition_->chunks(unit), scaled_);

        ++applied_pushes_;
        ++applies_since_ckpt_;
        apply_ev_.unit_list.push_back(unit);
    }
    // One record per outcome, listing its units in message order.
    for (NodeEvent *ev : {&apply_ev_, &dup_ev_}) {
        if (ev->unit_list.empty())
            continue;
        ev->t = fabric_.now();
        ev->w = w;
        ev->iter = iter;
        emit(*ev);
    }
    // Once per message: the cadence counts unit applies, but a
    // checkpoint never splits a worker's iteration.
    maybeCheckpoint();
    if (!apply_ev_.unit_list.empty() && apply_hook_)
        apply_hook_(iter);
    answerReadyPulls();
}

void
ServerNode::onPullReq(const MessageKey &key,
                      std::vector<std::uint8_t> &&bytes)
{
    PullReq req;
    if (!net::session::parse(bytes, req) ||
        req.worker >= peers_.size())
        return;
    const std::size_t w = req.worker;
    if (!sessionCurrent(w, key.version))
        return;
    table_.noteProgress(w, req.iter - 1);
    peers_[w].pending_pull = req.iter;
    emit({.kind = K::PullReq, .t = fabric_.now(), .w = w,
          .iter = req.iter});
    answerReadyPulls();
}

void
ServerNode::onHeartbeat(const MessageKey &key,
                        std::vector<std::uint8_t> &&bytes)
{
    Heartbeat hb;
    if (!net::session::parse(bytes, hb) ||
        hb.worker >= peers_.size())
        return;
    if (!sessionCurrent(hb.worker, key.version))
        return;
    if (tracker_.active(hb.worker))
        tracker_.observeHeartbeat(hb.worker, fabric_.now());
    table_.noteProgress(hb.worker, hb.iter);
}

void
ServerNode::onBye(const MessageKey &key,
                  std::vector<std::uint8_t> &&bytes)
{
    Bye bye;
    if (!net::session::parse(bytes, bye) ||
        bye.worker >= peers_.size())
        return;
    const std::size_t w = bye.worker;
    if (!sessionCurrent(w, key.version) || peers_[w].bye)
        return;
    table_.noteProgress(w, bye.done_iter);
    peers_[w].bye = true;
    peers_[w].pending_pull = -1;
    server_.retireWorker(w);
    tracker_.deactivate(w);
    emit({.kind = K::ServerBye, .t = fabric_.now(), .w = w,
          .done_iter = bye.done_iter});
    answerReadyPulls();
    checkDone();
}

void
ServerNode::evaluateMembership()
{
    const double now = fabric_.now();
    for (const MembershipEvent &ev : tracker_.evaluate(now)) {
        emit({.kind = K::Member, .t = ev.time, .w = ev.worker,
              .from = ev.from, .to = ev.to, .phi = ev.phi});
        if (ev.to == MemberState::Dead)
            evictWorker(ev.worker);
    }
    if (!done_)
        member_timer_ = fabric_.after(cfg_.detector.check_interval_s,
                                      [this] { evaluateMembership(); });
    else
        member_timer_ = 0;
}

void
ServerNode::evictWorker(std::size_t w)
{
    if (peers_[w].bye)
        return;
    server_.retireWorker(w);
    server_.clearWorker(w);
    peers_[w].pending_pull = -1;
    emit({.kind = K::Evict, .t = fabric_.now(), .w = w});
    answerReadyPulls();
}

bool
ServerNode::gateOpen(std::int64_t iter) const
{
    // RSP's gate (Algo 2): wait while n - min(V) >= threshold.
    return iter - server_.minWorkerIteration() < cfg_.staleness;
}

void
ServerNode::answerReadyPulls()
{
    for (std::size_t w = 0; w < peers_.size(); ++w)
        if (peers_[w].pending_pull >= 0 &&
            gateOpen(peers_[w].pending_pull))
            answerPull(w, peers_[w].pending_pull);
}

void
ServerNode::answerPull(std::size_t w, std::int64_t iter)
{
    // The return connection can vanish independently of the pull
    // (dropped on a failed re-Hello): keep the pull and its pending
    // gradients queued until the worker reconnects or is evicted.
    if (!fabric_.hasPeer(workerNode(w)))
        return;
    std::vector<std::uint8_t> bytes;
    net::session::UnitListWriter pd = net::session::UnitListWriter::pullData(
        bytes, iter, server_.minWorkerIteration());
    for (std::size_t u = 0; u < partition_->unitCount(); ++u) {
        if (!server_.hasPending(w, u))
            continue;
        decoded_.resize(partition_->unit(u).width);
        server_.takePending(w, u, decoded_);
        pd.add(static_cast<std::uint32_t>(u), decoded_);
    }
    peers_[w].pending_pull = -1;
    table_.noteResponse(w, iter);

    emit({.kind = K::PullAnswer, .t = fabric_.now(), .w = w,
          .iter = iter, .units = pd.units()});

    MessageKey key{static_cast<std::uint16_t>(w),
                   packVersion(table_.sessionOf(w), iter),
                   net::session::kRowPullData, true};
    fabric_.sendTo(workerNode(w), key, bytes,
                   fabric_.now() + cfg_.pull_timeout_s, {});
}

void
ServerNode::maybeCheckpoint()
{
    if (cfg_.checkpoint_path.empty() || cfg_.checkpoint_every == 0 ||
        applies_since_ckpt_ < cfg_.checkpoint_every)
        return;
    checkpointNow();
}

void
ServerNode::checkpointNow()
{
    if (cfg_.checkpoint_path.empty())
        return;
    ServerCheckpoint ckpt;
    ckpt.iteration = server_.minWorkerIteration();
    ckpt.msg_seq = ctrl_seq_;
    ckpt.versions = server_.shard(0).versionSnapshot();
    ckpt.server = server_.shard(0).serverSnapshot();
    ckpt.tracker = server_.shard(0).trackerSnapshot();
    ckpt.epoch = table_.epoch();
    ckpt.sessions = table_.snapshot();
    ckpt.model = nn::saveModelBytes(*model_);
    ckpt.worker_done.resize(peers_.size());
    for (std::size_t w = 0; w < peers_.size(); ++w)
        ckpt.worker_done[w] = peers_[w].bye ? 1 : 0;
    writeServerCheckpointFile(cfg_.checkpoint_path, ckpt);
    applies_since_ckpt_ = 0;
    emit({.kind = K::Checkpoint, .t = fabric_.now(),
          .iter = ckpt.iteration, .applied = applied_pushes_});
}

void
ServerNode::checkDone()
{
    for (const WorkerPeer &p : peers_)
        if (!p.bye)
            return;
    done_ = true;
    checkpointNow();
    emit({.kind = K::ServerDone, .t = fabric_.now()});
}

double
ServerNode::evaluateModel()
{
    return workload_.evaluate(*model_);
}

// --------------------------------------------------------------------
// WorkerNode
// --------------------------------------------------------------------

WorkerNode::WorkerNode(net::session::Fabric &fabric, Workload &workload,
                       const NodeTrainConfig &cfg, std::size_t worker,
                       const WorkerResumeState &resume, NodeLogger log)
    : fabric_(fabric), workload_(workload), cfg_(cfg), worker_(worker),
      log_(std::move(log)), model_(workload.buildReplica()),
      flat_(std::make_unique<FlatModel>(*model_)),
      partition_(
          std::make_unique<RowPartition>(*flat_, cfg.granularity)),
      opt_(std::make_unique<nn::SgdMomentum>(
          *model_, workload.optimizerConfig())),
      codec_(compress::makeCodec(cfg.codec)),
      sampler_(workload.makeSampler(worker)),
      incarnation_(resume.incarnation),
      resume_token_(resume.resume_token), epoch_(cfg.epoch),
      done_iter_(resume.last_done_iter)
{
    // A resume claim comes with the model it was cut with, in one
    // record; without a loadable model, fall back to a fresh
    // (token-less) handshake.
    if (resume_token_ != 0) {
        try {
            nn::loadModelBytes(resume.model, *model_);
        } catch (const std::exception &) {
            resume_token_ = 0;
            done_iter_ = 0;
        }
    }
}

WorkerNode::~WorkerNode()
{
    if (hello_timer_ != 0)
        fabric_.cancelTimer(hello_timer_);
    if (heartbeat_timer_ != 0)
        fabric_.cancelTimer(heartbeat_timer_);
    if (server_watch_timer_ != 0)
        fabric_.cancelTimer(server_watch_timer_);
    fabric_.setMessageHandler({});
}

void
WorkerNode::emit(const NodeEvent &ev)
{
    if (!log_)
        return;
    line_.clear();
    appendLine(ev, line_);
    log_(line_);
}

void
WorkerNode::start(const std::string &server_host,
                  std::uint16_t server_port)
{
    server_host_ = server_host;
    server_port_ = server_port;
    fabric_.setMessageHandler(
        [this](const MessageKey &key, std::vector<std::uint8_t> &&b) {
            onMessage(key, std::move(b));
        });
    if (!fabric_.connectPeer(kServerNode, server_host_, server_port_)) {
        emit({.kind = K::ConnectFailed, .t = fabric_.now()});
        phase_ = Phase::Failed;
        return;
    }
    sendHello();
    armHelloRetry();
}

void
WorkerNode::onMessage(const MessageKey &key,
                      std::vector<std::uint8_t> &&bytes)
{
    // Every one of these rows only ever originates at the server:
    // each is proof of life for the response-gap failure detector.
    noteServerAlive();
    switch (key.row) {
    case net::session::kRowWelcome:
        onWelcome(std::move(bytes));
        return;
    case net::session::kRowReject:
        onReject(std::move(bytes));
        return;
    case net::session::kRowPullData:
        // Only this live session's responses count; a slow PullData
        // from a pre-restart session must not double-apply.
        if (session_ != 0 && versionScope(key.version) == session_)
            onPullData(std::move(bytes));
        return;
    default:
        return; // not addressed to a worker.
    }
}

void
WorkerNode::sendHello()
{
    hello_nonce_ = (static_cast<std::uint64_t>(worker_) << 40) ^
                   (static_cast<std::uint64_t>(incarnation_) << 20) ^
                   hello_seq_;
    Hello h;
    h.worker = static_cast<std::uint16_t>(worker_);
    h.incarnation = incarnation_;
    h.epoch = epoch_;
    h.resume_token = resume_token_;
    h.nonce = hello_nonce_;
    h.rx_port = fabric_.listenPort();
    h.last_done_iter = done_iter_;

    emit({.kind = K::Hello, .t = fabric_.now(), .inc = incarnation_,
          .done_iter = done_iter_, .tries = hello_tries_,
          .token = resume_token_});

    MessageKey key{static_cast<std::uint16_t>(worker_),
                   packVersion(incarnation_, hello_seq_++),
                   net::session::kRowHello, false};
    fabric_.sendTo(kServerNode, key, net::session::encode(h),
                   fabric_.now() + cfg_.hello_retry_max_s, {});
}

void
WorkerNode::armHelloRetry()
{
    // Capped exponential: the same shape as the transport's retry
    // backoff, so a long server outage costs a bounded poll rate.
    const double exp2 = std::pow(
        2.0, static_cast<double>(std::min<std::size_t>(
                 hello_tries_, net::transport::kMaxBackoffExponent)));
    const double delay = std::min(cfg_.hello_retry_max_s,
                                  cfg_.hello_retry_base_s * exp2);
    hello_timer_ = fabric_.after(delay, [this] {
        hello_timer_ = 0;
        if (phase_ != Phase::Hello)
            return;
        if (++hello_tries_ >= cfg_.hello_max_tries) {
            emit({.kind = K::HelloGiveup, .t = fabric_.now()});
            phase_ = Phase::Failed;
            return;
        }
        // The socket itself may be the problem (server restarted):
        // reconnect before retrying.
        fabric_.connectPeer(kServerNode, server_host_, server_port_);
        sendHello();
        armHelloRetry();
    });
}

void
WorkerNode::onWelcome(std::vector<std::uint8_t> &&bytes)
{
    Welcome w;
    if (!net::session::parse(bytes, w) || w.nonce != hello_nonce_ ||
        phase_ != Phase::Hello)
        return;
    if (hello_timer_ != 0) {
        fabric_.cancelTimer(hello_timer_);
        hello_timer_ = 0;
    }
    session_ = w.session;
    resume_token_ = w.resume_token;
    epoch_ = w.epoch;
    admit_mode_ = w.mode;
    done_iter_ = w.start_iter;
    hello_tries_ = 0;

    if (w.mode != AdmitMode::Resume && !w.model.empty())
        nn::loadModelBytes(w.model, *model_);
    // Fresh transmission state for a fresh session: the codec's error
    // residual and the momentum buffers belong to the dead
    // incarnation's stream (they are not part of the resume
    // contract — the model checkpoint is).
    codec_ = compress::makeCodec(cfg_.codec);
    opt_ = std::make_unique<nn::SgdMomentum>(
        *model_, workload_.optimizerConfig());

    emit({.kind = K::Welcome, .t = fabric_.now(), .epoch = epoch_,
          .mode = w.mode, .session = session_, .start = done_iter_,
          .model_bytes = w.model.size()});

    hb_fail_streak_ = 0;
    armHeartbeat();
    armServerWatch();

    // A Resume admission whose start line sits exactly one short of
    // the parked push means the new server never applied it: re-send
    // the parked bytes under the fresh session scope instead of
    // recomputing (the codec residual has moved on). Any other
    // admission mode resynced the model, which already covers — or
    // deliberately discards — whatever was in flight.
    if (w.mode == AdmitMode::Resume && !parked_.empty() &&
        parked_iter_ == done_iter_ + 1) {
        repushParked();
        return;
    }
    parked_.clear();
    beginIteration();
}

void
WorkerNode::onReject(std::vector<std::uint8_t> &&bytes)
{
    Reject r;
    if (!net::session::parse(bytes, r) || r.nonce != hello_nonce_ ||
        phase_ != Phase::Hello)
        return;
    emit({.kind = K::Rejected, .t = fabric_.now(), .reason = r.reason});
    if (r.reason == RejectReason::BadEpoch) {
        epoch_ = r.server_epoch; // adopt and retry.
        // An epoch change means the server restarted with fresh
        // receiver state: abort this link's sends to the dead process
        // and rebuild the connection.
        fabric_.resetPeer(kServerNode);
        fabric_.connectPeer(kServerNode, server_host_, server_port_);
    } else {
        resume_token_ = 0; // stale claim: re-enter fresh.
        done_iter_ = 0;
    }
    if (hello_timer_ != 0) {
        fabric_.cancelTimer(hello_timer_);
        hello_timer_ = 0;
    }
    ++hello_tries_;
    sendHello();
    armHelloRetry();
}

void
WorkerNode::beginIteration()
{
    iter_ = done_iter_ + 1;
    if (iter_ > cfg_.max_iters) {
        finishRun();
        return;
    }
    phase_ = Phase::Pushing;
    emit({.kind = K::PushBegin, .t = fabric_.now(), .iter = iter_});

    // One real training step (identical to the in-process engine).
    data::Batch batch = sampler_.sample(workload_.batchSize());
    model_->zeroGrad();
    const tensor::Tensor &out = model_->forward(batch.features);
    nn::LossResult loss =
        batch.labels.empty()
            ? nn::meanSquaredError(out, batch.targets)
            : nn::softmaxCrossEntropy(out, batch.labels);
    model_->backward(loss.grad);

    // Encode every synchronization unit through the codec straight
    // into the parked push: if the server dies mid-push, the next
    // admission can re-send these exact bytes (the codec residual has
    // already advanced, so a recompute would not reproduce them).
    parked_iter_ = iter_;
    net::session::UnitListWriter push =
        net::session::UnitListWriter::push(parked_, iter_);
    for (std::size_t u = 0; u < partition_->unitCount(); ++u) {
        const Unit &unit = partition_->unit(u);
        grad_.resize(unit.width);
        decoded_.resize(unit.width);
        flat_->gatherGrad(partition_->chunks(u), grad_);
        codec_->transcodeRow(u, grad_, decoded_);
        push.add(static_cast<std::uint32_t>(u), decoded_);
    }
    sendParked();
}

void
WorkerNode::sendParked()
{
    // Deadline-less with unbounded chunk retries: a partition stalls
    // the run, it does not corrupt it.
    const std::uint32_t session = session_;
    MessageKey key{static_cast<std::uint16_t>(worker_),
                   packVersion(session, iter_), net::session::kRowPush,
                   false};
    fabric_.sendTo(kServerNode, key, parked_, kNoDeadline,
                   [this, session](bool ok) {
                       if (session != session_ || phase_ != Phase::Pushing)
                           return; // superseded by a resync.
                       if (!ok)
                           resync("push_failed");
                       else
                           onPushDelivered();
                   });
}

void
WorkerNode::repushParked()
{
    iter_ = parked_iter_;
    phase_ = Phase::Pushing;
    emit({.kind = K::Repush, .t = fabric_.now(), .iter = iter_,
          .units = partition_->unitCount()});
    sendParked();
}

void
WorkerNode::onPushDelivered()
{
    emit({.kind = K::PushDone, .t = fabric_.now(), .iter = iter_});
    phase_ = Phase::PullWait;
    PullReq req;
    req.worker = static_cast<std::uint16_t>(worker_);
    req.iter = iter_;
    MessageKey key{static_cast<std::uint16_t>(worker_),
                   packVersion(session_, iter_),
                   net::session::kRowPullReq, false};
    const std::uint32_t session = session_;
    fabric_.sendTo(kServerNode, key, net::session::encode(req),
                   kNoDeadline, [this, session](bool ok) {
                       if (!ok && session == session_ &&
                           phase_ == Phase::PullWait)
                           resync("pull_req_failed");
                   });
}

void
WorkerNode::onPullData(std::vector<std::uint8_t> &&bytes)
{
    PullData pd;
    if (!net::session::parse(bytes, pd) || phase_ != Phase::PullWait ||
        pd.iter != iter_)
        return;
    for (const net::session::UnitEntry &u : pd.units) {
        decoded_.resize(u.size());
        u.decode(decoded_);
        applyUnit(u.unit, decoded_);
    }
    done_iter_ = iter_;
    parked_.clear(); // the iteration landed; nothing left to re-send.
    writeLocalCheckpoint();
    emit({.kind = K::Applied, .t = fabric_.now(), .iter = iter_,
          .units = pd.units.size()});
    beginIteration();
}

void
WorkerNode::applyUnit(std::uint32_t unit, std::span<const float> values)
{
    if (unit >= partition_->unitCount() ||
        values.size() != partition_->unit(unit).width)
        return;
    applyRowChunks(*opt_, partition_->chunks(unit), values);
}

void
WorkerNode::writeLocalCheckpoint()
{
    if (cfg_.worker_state_dir.empty())
        return;
    try {
        writeWorkerState(workerStatePath(cfg_.worker_state_dir, worker_),
                         {incarnation_, resume_token_, done_iter_,
                          nn::saveModelBytes(*model_)});
    } catch (const std::exception &e) {
        // The previous record stays whole; the next apply retries.
        emit({.kind = K::StateWriteFailed, .t = fabric_.now(),
              .iter = done_iter_, .why = e.what()});
    }
}

void
WorkerNode::finishRun()
{
    phase_ = Phase::Leaving;
    if (heartbeat_timer_ != 0) {
        fabric_.cancelTimer(heartbeat_timer_);
        heartbeat_timer_ = 0;
    }
    if (server_watch_timer_ != 0) {
        fabric_.cancelTimer(server_watch_timer_);
        server_watch_timer_ = 0;
    }
    Bye bye;
    bye.worker = static_cast<std::uint16_t>(worker_);
    bye.done_iter = done_iter_;
    emit({.kind = K::WorkerBye, .t = fabric_.now(),
          .done_iter = done_iter_});
    MessageKey key{static_cast<std::uint16_t>(worker_),
                   packVersion(session_, 0), net::session::kRowBye,
                   false};
    fabric_.sendTo(kServerNode, key, net::session::encode(bye),
                   fabric_.now() + cfg_.welcome_timeout_s,
                   [this](bool) { phase_ = Phase::Done; });
}

void
WorkerNode::armHeartbeat()
{
    heartbeat_timer_ =
        fabric_.after(cfg_.detector.heartbeat_interval_s, [this] {
            heartbeat_timer_ = 0;
            if (!admitted() || phase_ == Phase::Leaving ||
                phase_ == Phase::Done)
                return;
            sendHeartbeat();
            armHeartbeat();
        });
}

void
WorkerNode::sendHeartbeat()
{
    Heartbeat hb;
    hb.worker = static_cast<std::uint16_t>(worker_);
    hb.iter = done_iter_;
    MessageKey key{static_cast<std::uint16_t>(worker_),
                   packVersion(session_, hb_seq_++),
                   net::session::kRowHeartbeat, false};
    // Best effort with a short deadline: a heartbeat that cannot get
    // through quickly is worthless, and must never pile up retries.
    // A *streak* of failures, though, is transport-level evidence the
    // server is gone — faster than waiting out the response-gap phi.
    const std::uint32_t session = session_;
    fabric_.sendTo(
        kServerNode, key, net::session::encode(hb),
        fabric_.now() + 2.0 * cfg_.detector.heartbeat_interval_s,
        [this, session](bool ok) {
            if (session != session_)
                return; // superseded by a resync.
            if (ok) {
                hb_fail_streak_ = 0;
                return;
            }
            if (++hb_fail_streak_ < 3 ||
                (phase_ != Phase::Pushing && phase_ != Phase::PullWait))
                return;
            hb_fail_streak_ = 0;
            resync("heartbeat_failed");
        });
}

void
WorkerNode::noteServerAlive()
{
    const double now = fabric_.now();
    if (last_server_msg_ > 0.0) {
        const double gap = now - last_server_msg_;
        // Same EWMA shape as the server's heartbeat detector.
        server_gap_ewma_ = server_gap_samples_ == 0
                               ? gap
                               : 0.8 * server_gap_ewma_ + 0.2 * gap;
        ++server_gap_samples_;
    }
    last_server_msg_ = now;
}

void
WorkerNode::armServerWatch()
{
    if (server_watch_timer_ != 0)
        fabric_.cancelTimer(server_watch_timer_);
    if (last_server_msg_ <= 0.0)
        last_server_msg_ = fabric_.now();
    server_watch_timer_ =
        fabric_.after(cfg_.server_check_interval_s, [this] {
            server_watch_timer_ = 0;
            checkServer();
        });
}

void
WorkerNode::checkServer()
{
    // Only a mid-iteration worker expects the server to answer; in
    // Hello the capped-retry loop is already probing, and a leaving
    // or finished worker has nothing left to wait for.
    if (phase_ != Phase::Pushing && phase_ != Phase::PullWait)
        return;
    const double now = fabric_.now();
    const double silence = now - last_server_msg_;
    bool suspect = silence >= cfg_.server_silence_bound_s;
    if (!suspect && server_gap_samples_ >= cfg_.server_phi_min_samples) {
        constexpr double kLn10 = 2.302585092994046;
        const double mean =
            std::max(server_gap_ewma_, cfg_.server_check_interval_s);
        suspect = silence / (mean * kLn10) >= cfg_.server_phi_suspect;
    }
    if (suspect) {
        emit({.kind = K::ServerSuspect, .t = now, .silence = silence});
        resync("server_suspect");
        return;
    }
    armServerWatch();
}

void
WorkerNode::resync(const char *why)
{
    emit({.kind = K::Resync, .t = fabric_.now(), .why = why});
    if (heartbeat_timer_ != 0) {
        fabric_.cancelTimer(heartbeat_timer_);
        heartbeat_timer_ = 0;
    }
    if (hello_timer_ != 0) {
        fabric_.cancelTimer(hello_timer_);
        hello_timer_ = 0;
    }
    if (server_watch_timer_ != 0) {
        fabric_.cancelTimer(server_watch_timer_);
        server_watch_timer_ = 0;
    }
    session_ = 0;
    phase_ = Phase::Hello;
    hello_tries_ = 0;
    hb_fail_streak_ = 0;
    // The next incarnation of the server speaks on its own cadence:
    // old response-gap statistics would only poison the detector.
    last_server_msg_ = 0.0;
    server_gap_ewma_ = 0.0;
    server_gap_samples_ = 0;
    fabric_.dropPeer(kServerNode);
    fabric_.connectPeer(kServerNode, server_host_, server_port_);
    sendHello();
    armHelloRetry();
}

} // namespace core
} // namespace rog
