#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace trdse::serve {

namespace wire = trdse::orch::wire;

void writeSubmitRequest(io::SectionWriter& w, const SubmitRequest& req) {
  w.str(req.tenant);
  w.str(req.source);
  w.boolean(req.wantJournal);
  w.str(req.scenarioText);
}

SubmitRequest readSubmitRequest(io::SectionReader& r) {
  SubmitRequest req;
  req.tenant = r.str();
  req.source = r.str();
  req.wantJournal = r.boolean();
  req.scenarioText = r.str();
  if (req.tenant.empty()) r.fail("submission carries an empty tenant");
  if (req.scenarioText.empty()) r.fail("submission carries no scenario text");
  return req;
}

void writeJobStatus(io::SectionWriter& w, const JobStatus& s) {
  w.u64(s.id);
  w.str(s.tenant);
  w.str(s.scenario);
  w.str(s.state);
  w.boolean(s.journaled);
  w.u64(s.rounds);
  w.u64(s.jobsTotal);
  w.u64(s.jobsDone);
  w.boolean(s.quarantined);
  w.str(s.error);
}

JobStatus readJobStatus(io::SectionReader& r) {
  JobStatus s;
  s.id = r.u64();
  s.tenant = r.str();
  s.scenario = r.str();
  s.state = r.str();
  s.journaled = r.boolean();
  s.rounds = r.u64();
  s.jobsTotal = r.u64();
  s.jobsDone = r.u64();
  s.quarantined = r.boolean();
  s.error = r.str();
  if (s.state != "queued" && s.state != "running" && s.state != "completed" &&
      s.state != "failed" && s.state != "cancelled")
    r.fail("unknown submission state \"" + s.state + "\"");
  return s;
}

void writeProgressEvent(io::SectionWriter& w, const ProgressEvent& ev) {
  w.u64(ev.id);
  w.u64(ev.round);
  w.u64(ev.jobsActive);
  w.u64(ev.jobsDone);
  w.u64(ev.sharedHits);
  w.u64(ev.simulated);
  w.f64(ev.bestValue);
}

ProgressEvent readProgressEvent(io::SectionReader& r) {
  ProgressEvent ev;
  ev.id = r.u64();
  ev.round = r.u64();
  ev.jobsActive = r.u64();
  ev.jobsDone = r.u64();
  ev.sharedHits = r.u64();
  ev.simulated = r.u64();
  ev.bestValue = r.f64();
  return ev;
}

void writeFinalResult(io::SectionWriter& w, const FinalResult& res) {
  w.u64(res.id);
  w.boolean(res.quarantined);
  w.str(res.report);
  w.u64(res.rows.size());
  for (const orch::JobResult& row : res.rows) wire::writeJobResult(w, row);
}

FinalResult readFinalResult(io::SectionReader& r) {
  FinalResult res;
  res.id = r.u64();
  res.quarantined = r.boolean();
  res.report = r.str();
  const std::uint64_t rows = r.u64();
  res.rows.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i)
    res.rows.push_back(wire::readJobResult(r));
  return res;
}

orch::wire::FrameChannel connectUnixSocket(const std::string& socketPath) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socketPath.size() >= sizeof(addr.sun_path))
    throw wire::WireError("serve::connectUnixSocket: socket path \"" +
                          socketPath + "\" exceeds the sockaddr_un limit (" +
                          std::to_string(sizeof(addr.sun_path) - 1) +
                          " bytes)");
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw wire::WireError(std::string("serve::connectUnixSocket: socket(): ") +
                          std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw wire::WireError("serve::connectUnixSocket: connect(\"" + socketPath +
                          "\"): " + std::strerror(err));
  }
  return orch::wire::FrameChannel(fd);
}

Client::Client(orch::wire::FrameChannel channel)
    : channel_(std::move(channel)) {}

Client Client::connect(const std::string& socketPath) {
  return Client(connectUnixSocket(socketPath));
}

io::CheckpointReader Client::roundTrip(const io::CheckpointWriter& msg,
                                       const std::string& expect) {
  channel_.send(msg);
  io::CheckpointReader reply = channel_.recv("serve client");
  if (reply.kind() == wire::kMsgRejected) {
    io::SectionReader body = reply.section("body");
    throw ServeError(body.str());
  }
  if (reply.kind() != expect)
    throw wire::WireError("serve client: expected a " + expect +
                          " reply, got " + reply.kind());
  return reply;
}

std::uint64_t Client::submit(const SubmitRequest& req, bool* journaledOut) {
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgSubmit);
  writeSubmitRequest(msg.section("body"), req);
  io::CheckpointReader reply = roundTrip(msg, wire::kMsgAccepted);
  io::SectionReader body = reply.section("body");
  const std::uint64_t id = body.u64();
  const bool journaled = body.boolean();
  if (journaledOut != nullptr) *journaledOut = journaled;
  return id;
}

std::vector<JobStatus> Client::status(std::uint64_t id) {
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgStatus);
  msg.section("body").u64(id);
  io::CheckpointReader reply = roundTrip(msg, wire::kMsgStatusReply);
  io::SectionReader body = reply.section("body");
  const std::uint64_t count = body.count(1);
  std::vector<JobStatus> rows;
  rows.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i)
    rows.push_back(readJobStatus(body));
  return rows;
}

FinalResult Client::stream(
    std::uint64_t id,
    const std::function<void(const ProgressEvent&)>& onProgress) {
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgStream);
  msg.section("body").u64(id);
  channel_.send(msg);
  // The daemon answers with zero or more serve/progress frames and exactly
  // one terminal frame: serve/result, or serve/rejected when the submission
  // is unknown, failed, or was cancelled.
  for (;;) {
    io::CheckpointReader frame = channel_.recv("serve client");
    if (frame.kind() == wire::kMsgProgress) {
      io::SectionReader body = frame.section("body");
      const ProgressEvent ev = readProgressEvent(body);
      if (onProgress) onProgress(ev);
      continue;
    }
    if (frame.kind() == wire::kMsgRejected) {
      io::SectionReader body = frame.section("body");
      throw ServeError(body.str());
    }
    if (frame.kind() != wire::kMsgResult)
      throw wire::WireError("serve client: expected serve/progress or " +
                            std::string(wire::kMsgResult) + ", got " +
                            frame.kind());
    io::SectionReader body = frame.section("body");
    return readFinalResult(body);
  }
}

void Client::cancel(std::uint64_t id) {
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgCancel);
  msg.section("body").u64(id);
  roundTrip(msg, wire::kMsgOk);
}

void Client::shutdown() {
  io::CheckpointWriter msg = wire::makeMessage(wire::kMsgServeShutdown);
  msg.section("body").u64(0);
  roundTrip(msg, wire::kMsgOk);
}

}  // namespace trdse::serve
