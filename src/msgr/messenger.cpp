#include "msgr/messenger.h"

#include <cassert>

#include "common/crc32c.h"
#include "common/logger.h"

namespace doceph::msgr {
namespace {

constexpr std::uint32_t kBannerMagic = 0xD0CE0001;
constexpr std::size_t kBannerSize = 4 + 6;          // magic + Address
constexpr std::size_t kHeaderSize =
    2 + 8 + 8 + 4 + 4 + 6 + trace::TraceContext::kWireSize;  // see WireHeader
constexpr std::size_t kFooterSize = 4 + 4;          // front_crc + data_crc
constexpr std::size_t kRecvChunk = 4 << 20;

}  // namespace

// ---- Connection ---------------------------------------------------------------

Connection::Connection(Messenger& msgr, event::EventCenter& center,
                       net::SocketRef sock, bool incoming)
    : msgr_(msgr), center_(center), sock_(std::move(sock)), incoming_(incoming) {}

void Connection::start() {
  auto self = shared_from_this();
  sock_->set_read_handler(center_, [self] { self->handle_readable(); });
  sock_->set_write_handler(center_, [self] { self->handle_writable(); });
  // Both sides introduce themselves with a banner carrying their advertised
  // (listening) address.
  BufferList banner;
  encode(kBannerMagic, banner);
  encode(msgr_.addr(), banner);
  tx_buf_.claim_append(banner);
  try_flush();
}

net::Address Connection::peer_addr() const {
  return peer_advertised_.valid() ? peer_advertised_ : sock_->remote_addr();
}

void Connection::send_message(MessageRef m, std::function<void()> on_sent) {
  auto self = shared_from_this();
  center_.dispatch([self, m = std::move(m), on_sent = std::move(on_sent)] {
    if (self->state_.load() == State::closed) {  // dropped, like a reset
      if (on_sent) on_sent();
      return;
    }
    BufferList frame = self->encode_message(*m);
    self->tx_buf_.claim_append(frame);
    self->sent_.fetch_add(1, std::memory_order_relaxed);
    // Before the flush, so the hook has run by the time the peer can see
    // the message.
    if (on_sent) on_sent();
    self->try_flush();
  });
}

BufferList Connection::encode_message(const Message& m) {
  BufferList front;
  m.encode_payload(front);

  // A payload this process received (and so verified) is shared into
  // `front` or `data` with its crc cached: only the other bytes are hashed.
  std::size_t front_hashed = 0, data_hashed = 0;
  const std::uint32_t front_crc = front.crc32c(0, &front_hashed);
  const std::uint32_t data_crc = m.data.crc32c(0, &data_hashed);
  const std::uint64_t bytes = front.length() + m.data.length();
  const std::uint64_t hashed = front_hashed + data_hashed;

  const auto& costs = msgr_.config().costs;
  msgr_.charge(costs.per_msg_encode +
               static_cast<sim::Duration>(costs.crc_per_byte_ns *
                                          static_cast<double>(hashed)));
  msgr_.counters_->inc(l_msgr_msg_send);
  msgr_.counters_->inc(l_msgr_bytes_send, bytes);
  msgr_.counters_->inc(l_msgr_crc_bytes, hashed);
  msgr_.counters_->inc(l_msgr_crc_cached_bytes, bytes - hashed);

  BufferList frame;
  encode(static_cast<std::uint16_t>(m.type()), frame);
  encode(next_seq_++, frame);
  encode(m.tid, frame);
  encode(static_cast<std::uint32_t>(front.length()), frame);
  encode(static_cast<std::uint32_t>(m.data.length()), frame);
  encode(msgr_.addr(), frame);
  encode(m.trace, frame);
  assert(frame.length() == kHeaderSize);

  frame.claim_append(front);
  frame.append(m.data);  // zero-copy share of bulk payload
  encode(front_crc, frame);
  encode(data_crc, frame);
  return frame;
}

void Connection::try_flush() {
  while (tx_buf_.length() > 0) {
    auto r = sock_->send(tx_buf_);
    if (!r.ok()) {
      fail(r.status());
      return;
    }
    if (*r == 0) return;  // would-block: handle_writable resumes
  }
}

void Connection::handle_writable() { try_flush(); }

void Connection::handle_readable() {
  while (true) {
    BufferList chunk = sock_->recv(kRecvChunk);
    if (chunk.empty()) break;
    rx_buf_.claim_append(chunk);
  }
  process_rx();
  if (sock_->eof() && state_.load() != State::closed) {
    fail(Status(Errc::not_connected, "peer closed"));
  }
}

void Connection::process_rx() {
  if (state_.load() == State::banner_wait) {
    if (rx_buf_.length() < kBannerSize) return;
    BufferList::Cursor cur(rx_buf_);
    std::uint32_t magic = 0;
    if (!decode(magic, cur) || magic != kBannerMagic ||
        !peer_advertised_.decode(cur)) {
      fail(Status(Errc::corrupt, "bad banner"));
      return;
    }
    rx_buf_ = rx_buf_.substr(kBannerSize, rx_buf_.length() - kBannerSize);
    state_.store(State::ready);
  }
  while (state_.load() == State::ready && parse_one()) {
  }
}

bool Connection::parse_one() {
  if (!have_header_) {
    if (rx_buf_.length() < kHeaderSize) return false;
    BufferList::Cursor cur(rx_buf_);
    std::uint16_t type_raw = 0;
    if (!decode(type_raw, cur) || !decode(hdr_.seq, cur) || !decode(hdr_.tid, cur) ||
        !decode(hdr_.front_len, cur) || !decode(hdr_.data_len, cur) ||
        !hdr_.src.decode(cur) || !hdr_.trace.decode(cur)) {
      fail(Status(Errc::corrupt, "bad header"));
      return false;
    }
    hdr_.type = static_cast<MsgType>(type_raw);
    rx_buf_ = rx_buf_.substr(kHeaderSize, rx_buf_.length() - kHeaderSize);
    have_header_ = true;
    hdr_stamp_ = msgr_.env().now();
  }

  const std::size_t need = hdr_.front_len + hdr_.data_len + kFooterSize;
  if (rx_buf_.length() < need) return false;

  BufferList front = rx_buf_.substr(0, hdr_.front_len);
  BufferList data = rx_buf_.substr(hdr_.front_len, hdr_.data_len);
  const BufferList footer = rx_buf_.substr(hdr_.front_len + hdr_.data_len, kFooterSize);
  BufferList::Cursor fcur(footer);
  std::uint32_t front_crc = 0, data_crc = 0;
  (void)decode(front_crc, fcur);
  (void)decode(data_crc, fcur);
  rx_buf_ = rx_buf_.substr(need, rx_buf_.length() - need);
  have_header_ = false;

  // Every byte that arrived is hashed: a cached crc, had one crossed the
  // wire, would vouch for the sender's bytes, not these. The crcs computed
  // here stay cached, so forwarding this payload does not hash it again.
  const std::uint64_t bytes = std::uint64_t{hdr_.front_len} + hdr_.data_len;
  const auto& costs = msgr_.config().costs;
  msgr_.charge(costs.per_msg_decode +
               static_cast<sim::Duration>(costs.crc_per_byte_ns *
                                          static_cast<double>(bytes)));
  msgr_.counters_->inc(l_msgr_crc_bytes, bytes);

  if (front.crc32c_verify() != front_crc || data.crc32c_verify() != data_crc) {
    fail(Status(Errc::corrupt, "message crc mismatch"));
    return false;
  }

  MessageRef m = create_message(hdr_.type);
  if (m == nullptr) {
    fail(Status(Errc::corrupt, "unknown message type"));
    return false;
  }
  BufferList::Cursor pcur(front);
  if (!m->decode_payload(pcur)) {
    fail(Status(Errc::corrupt, "bad payload"));
    return false;
  }
  m->data = std::move(data);
  m->tid = hdr_.tid;
  m->seq = hdr_.seq;
  m->src = hdr_.src;
  m->trace = hdr_.trace;
  m->connection = shared_from_this();
  // Anchor at header arrival so the op's messenger stage covers payload
  // wait + decode + CRC, not just the dispatch instant.
  m->recv_stamp = hdr_stamp_;
  received_.fetch_add(1, std::memory_order_relaxed);
  msgr_.counters_->inc(l_msgr_msg_recv);
  msgr_.counters_->inc(l_msgr_bytes_recv, bytes);
  msgr_.dispatch_message(m);
  return true;
}

void Connection::fail(const Status& why) {
  if (state_.exchange(State::closed) == State::closed) return;
  DLOG(debug, "msgr") << msgr_.entity_name() << " connection to "
                      << peer_addr().to_string() << " failed: " << why.to_string();
  sock_->clear_handlers();  // the worker's EventCenter may outlive us barely
  sock_->close();
  msgr_.connection_reset(shared_from_this());
}

void Connection::mark_down() {
  auto self = shared_from_this();
  center_.dispatch([self] {
    if (self->state_.exchange(State::closed) == State::closed) return;
    self->sock_->clear_handlers();
    self->sock_->close();
  });
}

// ---- Messenger ------------------------------------------------------------------

Messenger::Messenger(sim::Env& env, net::Fabric& fabric, net::NetNode& node,
                     sim::CpuDomain* domain, std::string entity_name,
                     MessengerConfig cfg)
    : env_(env),
      fabric_(fabric),
      node_(node),
      domain_(domain),
      entity_(std::move(entity_name)),
      cfg_(cfg),
      counters_(perf::Builder("msgr", l_msgr_first, l_msgr_last)
                    .add_counter(l_msgr_msg_recv, "msg_recv")
                    .add_counter(l_msgr_msg_send, "msg_send")
                    .add_counter(l_msgr_bytes_recv, "bytes_recv")
                    .add_counter(l_msgr_bytes_send, "bytes_send")
                    .add_counter(l_msgr_crc_bytes, "crc_bytes")
                    .add_counter(l_msgr_crc_cached_bytes, "crc_cached_bytes")
                    .create()) {
  centers_.reserve(static_cast<std::size_t>(cfg_.num_workers));
  for (int i = 0; i < cfg_.num_workers; ++i)
    centers_.push_back(std::make_unique<event::EventCenter>(env_));
}

Messenger::~Messenger() { shutdown(); }  // NOLINT(bugprone-exception-escape): teardown must complete; a throw terminates, by design

Status Messenger::bind(std::uint16_t port) {
  const Status st =
      node_.listen(port, *centers_[0], [this](net::SocketRef s) { accept(std::move(s)); });
  if (st.ok()) bound_port_ = port;
  return st;
}

void Messenger::start() {
  assert(!started_);
  started_ = true;
  for (int i = 0; i < cfg_.num_workers; ++i) {
    workers_.emplace_back(
        env_.keeper(), env_.stats(),
        "msgr-worker-" + std::to_string(i) + "@" + entity_, domain_,
        [c = centers_[static_cast<std::size_t>(i)].get()] { c->run(); },
        /*daemon=*/true);
  }
}

void Messenger::shutdown() {
  if (!started_) return;
  started_ = false;
  std::vector<ConnectionRef> cons;
  {
    const dbg::LockGuard lk(mutex_);
    for (auto& [addr, con] : outgoing_) cons.push_back(con);
    for (auto& con : accepted_) cons.push_back(con);
    outgoing_.clear();
    accepted_.clear();
  }
  for (auto& con : cons) con->mark_down();
  if (bound_port_ != 0) node_.unlisten(bound_port_);
  for (auto& c : centers_) c->stop();
  workers_.clear();  // joins
}

event::EventCenter& Messenger::pick_center() {
  const std::size_t i = next_center_.fetch_add(1) % centers_.size();
  return *centers_[i];
}

void Messenger::accept(net::SocketRef sock) {
  auto& center = pick_center();
  ConnectionRef con(new Connection(*this, center, std::move(sock), /*incoming=*/true));
  {
    const dbg::LockGuard lk(mutex_);
    accepted_.push_back(con);
  }
  center.dispatch([con] { con->start(); });
}

ConnectionRef Messenger::get_connection(const net::Address& peer) {
  {
    const dbg::LockGuard lk(mutex_);
    auto it = outgoing_.find(peer);
    if (it != outgoing_.end() && it->second->is_connected()) return it->second;
    if (it != outgoing_.end() && it->second->state_.load() == Connection::State::banner_wait)
      return it->second;  // still handshaking; reuse
  }
  auto sock = fabric_.connect(node_, peer);
  if (!sock.ok()) {
    DLOG(debug, "msgr") << entity_ << " connect to " << peer.to_string()
                        << " failed: " << sock.status().to_string();
    return nullptr;
  }
  auto& center = pick_center();
  ConnectionRef con(new Connection(*this, center, std::move(sock).value(),
                                   /*incoming=*/false));
  {
    const dbg::LockGuard lk(mutex_);
    outgoing_[peer] = con;
  }
  center.dispatch([con] { con->start(); });
  return con;
}

void Messenger::dispatch_message(const MessageRef& m) {
  if (dispatcher_ == nullptr) return;
  if (m->trace.sampled()) {
    // Fig.-2 "msgr worker recv/dispatch": header arrival (payload wait +
    // decode + CRC) through the dispatcher's fast-dispatch return.
    auto sp = env_.tracer().span("msgr.dispatch", "msgr." + entity_, m->trace,
                                 m->recv_stamp);
    dispatcher_->ms_dispatch(m);
    sp.end(env_.now());
    return;
  }
  dispatcher_->ms_dispatch(m);
}

void Messenger::connection_reset(const ConnectionRef& con) {
  if (dispatcher_ != nullptr) dispatcher_->ms_handle_reset(con);
}

}  // namespace doceph::msgr
